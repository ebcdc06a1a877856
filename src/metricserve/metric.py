"""Finite metric spaces from weighted graphs.

The metric is the all-pairs shortest-path distance of a connected,
positively weighted simple graph.  On top of it this module provides the
two shapes used by the charging analysis (balls and perforated balls)
together with the edge-part measure: a shape claims, on every graph
edge, a set of 1-D position intervals, and the measure of a subgraph
inside the shape is the total claimed length over the subgraph's edges.

Edge-part semantics
-------------------
A position t in [0, w] on edge (u, x) has distance to a node z of
``min(dist(z,u) + t, dist(z,x) + w - t)``.  A plain ball claims edge
parts by the endpoint rule: the whole edge when both endpoints lie in
the ball, the segment of length ``r - dist(center, u)`` nearest the
inside endpoint when only u lies in it, nothing otherwise.  A
perforated ball claims what the plain ball claims minus, for every node
z, the positions within distance h = r/rho of z.  On edge (u, x) only
the holes of u and x matter: every path from z into the edge enters it
through u or x, so z's hole on the edge lies inside u's hole ``[0, h]``
(as ``d(z,u) + t <= h`` implies ``t <= h``) or inside x's hole
``[w - h, w]``.  The claim is therefore the ball claim clipped to the
gap between those two end segments, and empty when they meet within
``EPS``.  Starting the perforated case from the endpoint rule (instead
of re-deriving inside-ball positions from the 1-D distance) keeps the
perforation-difference bound ``measure(ball) - measure(perforated) <=
2 r n^2 / rho`` an identity of the construction: the clip takes at most
h from each end, so each edge loses at most ``2 r / rho`` to holes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import config

__all__ = [
    "WeightedGraph",
    "MetricSpace",
    "Ball",
    "PerforatedBall",
    "Shape",
    "DisconnectedGraphError",
    "NumericRangeError",
    "build_metric",
    "ball_points",
    "shape_edge_measure",
    "perforation_gap_bound_check",
    "edge_intervals_in_shape",
    "shapes_edge_disjoint",
    "complete_graph_on",
]


class DisconnectedGraphError(ValueError):
    """The input graph does not connect all of its nodes."""


class NumericRangeError(ArithmeticError):
    """The instance's numbers lie outside the range the engines resolve: a
    distance overflows, a path sum drifts from its distance by more than
    ``EPS``, or a delay threshold crossing fails once residuals are summed
    or leaves no request with residual above ``EPS`` to trigger it."""


EdgeSet = frozenset[tuple[int, int]]


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with strictly positive edge weights."""

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.node_count <= 0:
            raise ValueError("node_count must be positive")
        edges = []
        seen = set()
        for u, v, w in self.edges:
            u, v = int(u), int(v)
            try:
                w = float(w)
            except OverflowError:  # an int too large for a float
                w = math.inf
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u},{v}) out of node range")
            if not 0 < w < math.inf:  # also false for NaN
                raise ValueError(f"edge ({u},{v}) has weight {w}, not finite and positive")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge between {u} and {v}")
            seen.add(key)
            edges.append((u, v, w))
        object.__setattr__(self, "edges", tuple(edges))


@dataclass(frozen=True)
class Ball:
    center: int
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")


@dataclass(frozen=True)
class PerforatedBall:
    """Ball minus a ball of radius ``radius / rho`` around every node."""

    center: int
    radius: float
    rho: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")
        if self.rho <= 1:
            raise ValueError("rho must exceed 1")


Shape = Ball | PerforatedBall


@dataclass(frozen=True)
class MetricSpace:
    """Immutable all-pairs shortest-path metric over a weighted graph.

    Node i stands for point ``points[i]`` of the metric the space was
    restricted from; a graph metric maps every node to itself.  The graph's
    edges are ``_edge_weight``; ``dist`` is exactly symmetric, with a zero
    diagonal: each ``_relax`` round sets (i, j) and (j, i) from ``row[i] +
    row[j]`` and ``row[j] + row[i]``, and float addition commutes.

    Scalar reads go through ``dist_view``, a ``memoryview`` of ``dist``:
    ``dist_view[u, v]`` reads the bytes of ``dist[u, v]`` in any layout and
    returns a Python float, at under half the cost and with no copy.
    """

    n: int
    dist: np.ndarray
    d_min: float
    points: tuple[int, ...]
    _adj: dict[int, list[tuple[int, float]]] = field(repr=False, default_factory=dict)
    _edge_weight: dict[tuple[int, int], float] = field(repr=False, default_factory=dict)
    # (u, v) -> path_edges(u, v); the space is immutable, so entries never go stale
    _paths: dict[tuple[int, int], tuple[tuple[float, int, int], ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    @cached_property
    def index(self) -> dict[int, int]:
        """Point id -> node id, the inverse of ``points``."""
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def dist_view(self) -> memoryview:
        return memoryview(self.dist)

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as ``(u, v, weight)`` with ``u < v``, sorted by ``(u, v)``."""
        return tuple((u, v, w) for (u, v), w in sorted(self._edge_weight.items()))

    def distance(self, u: int, v: int) -> float:
        return self.dist_view[u, v]

    def edge_weight(self, u: int, v: int) -> float:
        return self._edge_weight[(min(u, v), max(u, v))]

    @property
    def edges(self) -> EdgeSet:
        return frozenset(self._edge_weight)

    def total_weight(self) -> float:
        return float(sum(self._edge_weight.values()))

    def shortest_path_nodes(self, u: int, v: int) -> list[int]:
        """Lexicographically smallest shortest path from u to v, as nodes."""
        path = [u]
        for _, a, b in self.path_edges(u, v):
            path.append(b if a == path[-1] else a)
        return path

    def path_edges(self, u: int, v: int) -> tuple[tuple[float, int, int], ...]:
        """Hops of the lexicographically smallest shortest path from u to v,
        in path order, as ``(weight, min id, max id)``; memoised per space."""
        hops = self._paths.get((u, v))
        if hops is None:
            hops = self._paths[(u, v)] = self._walk(u, v)
        return hops

    def _walk(self, u: int, v: int) -> tuple[tuple[float, int, int], ...]:
        """Greedy: at each node take the smallest-id neighbor that keeps the
        remaining distance exact.  Deterministic, so traced walks and tree
        expansions are reproducible.  Raises ``NumericRangeError`` when no
        neighbor is within ``EPS``, which exact arithmetic rules out."""
        eps = config.EPS
        view = self.dist_view
        hops = []
        cur = u
        remaining = view[u, v]
        while cur != v:
            for z, w in self._adj[cur]:
                if abs(w + view[z, v] - remaining) <= eps:
                    hops.append((w, min(cur, z), max(cur, z)))
                    remaining -= w
                    cur = z
                    break
            else:
                raise NumericRangeError(f"no shortest-path step from {cur} toward {v}")
        return tuple(hops)


def build_metric(g: WeightedGraph) -> MetricSpace:
    """All-pairs shortest paths via Floyd-Warshall relaxation (``_relax``)."""
    n = g.node_count
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    adj: dict[int, list[tuple[int, float]]] = {u: [] for u in range(n)}
    edge_weight: dict[tuple[int, int], float] = {}
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
        edge_weight[(min(u, v), max(u, v))] = w
    # one write per entry: WeightedGraph rejects duplicate edges and self-loops
    us, vs, ws = zip(*g.edges) if g.edges else ((), (), ())
    dist[us, vs] = dist[vs, us] = ws
    adj = {u: sorted(nbrs) for u, nbrs in adj.items()}
    return _relax(dist, tuple(range(n)), adj, edge_weight)


def _relax(dist: np.ndarray, points, adj, edge_weight) -> MetricSpace:
    """Floyd-Warshall rounds on ``dist`` in place, k ascending, into a space.

    Round k's candidates ``row[i] + row[j]``, ``row = dist[k]``, are the
    product ``[row, 1] @ [1; row]`` in numpy's BLAS, bit for bit: each entry
    is ``row[i]*1.0 + 1.0*row[j]``, both products are exact, so any dot-product
    kernel rounds the sum once, with or without FMA, in any order, from a zero
    accumulator.  Row k stands for column k as ``dist`` is exactly symmetric:
    both callers pass a symmetric matrix and each round keeps it so.  ``inf``
    propagates as in ``np.add``; the invalid flag comes from padding lanes of
    OpenBLAS edge tiles, which multiply 0 by ``inf`` and are never stored (any
    n not a multiple of 8, while a row holds ``inf``).  A final ``inf`` raises
    DisconnectedGraphError, or NumericRangeError if ``adj`` reaches every node."""
    n = len(dist)
    buf = np.empty_like(dist)
    e = np.ones((3, n))
    a, b = e[1:].T, e[:2]  # [row k, 1] and [1; row k] once e[1] holds row k
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n):
            e[1] = dist[k]
            np.minimum(dist, np.matmul(a, b, out=buf), out=dist)
    del buf  # so that it never coexists with the d_min copy below
    if np.isinf(dist).any():
        reached = [0]
        for u in reached:  # breadth-first; the loop reads what it appends
            reached += [z for z, _ in adj[u] if z not in reached]
        if len(reached) == n:
            raise NumericRangeError("a shortest-path distance overflows the float range")
        bad = min(set(range(n)).difference(reached))
        raise DisconnectedGraphError(f"graph is disconnected: node {bad} unreachable")
    d_min = float(dist[dist > 0].min()) if n > 1 else 1.0
    dist.setflags(write=False)
    return MetricSpace(n, dist, d_min, points, adj, edge_weight)


def ball_points(m: MetricSpace, v: int, r: float) -> frozenset[int]:
    """Nodes within (closed) distance r of v."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    row = m.dist[v]
    return frozenset(int(u) for u in np.nonzero(row <= r + config.EPS)[0])


def _ball_claim(
    m: MetricSpace, u: int, x: int, w: float, v: int, r: float
) -> list[tuple[float, float]]:
    """Endpoint-rule claim of Ball(v, r) on edge (u, x): one interval or none."""
    eps = config.EPS
    du, dx = m.distance(v, u), m.distance(v, x)
    u_in, x_in = du <= r + eps, dx <= r + eps
    if u_in and x_in:
        return [(0.0, w)]
    if u_in:
        part = min(w, max(0.0, r - du))
        return [(0.0, part)] if part > 0 else []
    if x_in:
        part = min(w, max(0.0, r - dx))
        return [(w - part, w)] if part > 0 else []
    return []


def edge_intervals_in_shape(
    m: MetricSpace, u: int, x: int, w: float, shape: Shape
) -> list[tuple[float, float]]:
    """Position intervals the shape claims on edge (u, x) of weight w."""
    claim = _ball_claim(m, u, x, w, shape.center, shape.radius)
    if not claim or isinstance(shape, Ball):
        return claim
    # the holes of u and x are [0, h] and [w - h, w]; within EPS of each
    # other they join and cover the edge, unless x's is empty (w - h == w)
    h = shape.radius / shape.rho
    if w - h < w and w - h <= h + config.EPS:
        return []
    [(lo, hi)] = claim
    lo, hi = max(lo, h), min(hi, w - h)
    return [(lo, hi)] if lo < hi else []


def shape_edge_measure(m: MetricSpace, edges: EdgeSet, shape: Shape) -> float:
    """Total length the shape claims over the given source-graph edges."""
    total = 0.0
    for u, x in edges:
        w = m.edge_weight(u, x)
        total += sum(hi - lo for lo, hi in edge_intervals_in_shape(m, u, x, w, shape))
    return total


def perforation_gap_bound_check(
    m: MetricSpace, edges: EdgeSet, v: int, r: float, rho: float
) -> bool:
    """measure(ball) <= measure(perforated ball) + 2 r n^2 / rho."""
    ball = shape_edge_measure(m, edges, Ball(v, r))
    perf = shape_edge_measure(m, edges, PerforatedBall(v, r, rho))
    return ball <= perf + 2.0 * r * m.n**2 / rho + config.EPS


def shapes_edge_disjoint(m: MetricSpace, a: Shape, b: Shape) -> bool:
    """Whether the two shapes claim disjoint edge parts on every graph edge."""
    eps = config.EPS
    for u, x in m.edges:
        w = m.edge_weight(u, x)
        ia = edge_intervals_in_shape(m, u, x, w, a)
        if not ia:
            continue
        ib = edge_intervals_in_shape(m, u, x, w, b)
        for lo1, hi1 in ia:
            for lo2, hi2 in ib:
                if min(hi1, hi2) - max(lo1, lo2) > eps:
                    return False
    return True


def complete_graph_on(m: MetricSpace, points) -> MetricSpace:
    """Metric closure over a nonempty subset of m's nodes: the complete graph
    over the sorted points, weighted by m's distances, whose node i stands for
    the i-th point (the request regime's tree space).  With ``m.dist`` exactly
    symmetric and zero on the diagonal, the slice ``m.dist[np.ix_(pts, pts)]``
    is entry for entry the matrix ``build_metric`` starts that graph from, so
    the same ``_relax`` rounds give the same distances byte for byte."""
    pts = sorted(set(points))
    if not pts or pts[0] < 0 or pts[-1] >= m.n:
        raise ValueError(f"closure points must be a nonempty subset of range({m.n})")
    dist = m.dist[np.ix_(pts, pts)]
    # a closure is a graph metric too, so its edge weights must be finite and positive
    if not (np.isfinite(dist).all() and np.count_nonzero(dist > 0) == len(pts) ** 2 - len(pts)):
        raise ValueError("closure weights must be finite and positive off the diagonal")
    w = dist.tolist()
    adj = {i: [(j, x) for j, x in enumerate(row) if j != i] for i, row in enumerate(w)}
    edge_weight = {(i, j): row[j] for i, row in enumerate(w) for j in range(i + 1, len(w))}
    return _relax(dist, tuple(pts), adj, edge_weight)
