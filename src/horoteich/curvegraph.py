"""Finite curve-graph computations over exact intersection data.

Vertices are origami traces with a symmetric table of exact intersection
numbers (crossing numbers); edges join distinct disjoint curves.  Distances
are plain BFS, and re-marking actions are checked to act by graph
automorphisms.  The origami model is imported only where traces are paired.
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence

from .kernel import Frozen, Record

UNREACHABLE = math.inf


class CurveSet(Frozen):
    """Curves (identifiers, and CurveTrace payloads) with their exact
    pairwise intersection numbers, a tuple of tuples."""

    _fields = ("vertices", "payloads", "i_matrix")

    def __init__(self, vertices: tuple, payloads: tuple, i_matrix: tuple):
        n = len(vertices)
        if len(payloads) != n or len(i_matrix) != n:
            raise ValueError("vertices, payloads and i_matrix sizes differ")
        if any(len(row) != n for row in i_matrix):
            raise ValueError("i_matrix is not square")
        if any(row[r] for r, row in enumerate(i_matrix)):
            raise ValueError("i_matrix diagonal must be zero")
        if tuple(zip(*i_matrix)) != i_matrix or min(map(min, i_matrix), default=0) < 0:
            raise ValueError("i_matrix must be symmetric and nonnegative")
        Record.__init__(self, vertices, payloads, i_matrix)


def _pairwise(payloads, pairing):
    """Symmetric table of a symmetric pairing: each unordered pair once."""
    n = len(payloads)
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r + 1, n):
            rows[r][c] = rows[c][r] = pairing(payloads[r], payloads[c])
    return tuple(map(tuple, rows))


def curve_set_from_traces(ids: Sequence, traces: Sequence) -> CurveSet:
    from .origami import crossing_number
    return CurveSet(tuple(ids), tuple(traces), _pairwise(tuple(traces), crossing_number))


class Graph(Frozen):
    _fields = ("vertices", "adjacency")  # adjacency: frozensets of vertex indices

    @property
    def edges(self):
        out = []
        for i, nbrs in enumerate(self.adjacency):
            for j in nbrs:
                if i < j:
                    out.append((self.vertices[i], self.vertices[j]))
        return tuple(out)


def build_graph(cs: CurveSet) -> Graph:
    """Edge between distinct curves iff their intersection number is 0."""
    n = len(cs.vertices)
    adj = tuple(
        frozenset(j for j in range(n) if j != i and cs.i_matrix[i][j] == 0)
        for i in range(n)
    )
    return Graph(cs.vertices, adj)


def graph_distance(g: Graph, u, v):
    """BFS edge count; UNREACHABLE when no path exists in the finite set."""
    iu, iv = g.vertices.index(u), g.vertices.index(v)
    if iu == iv:
        return 0
    dist = {iu: 0}
    queue = deque([iu])
    while queue:
        i = queue.popleft()
        for j in g.adjacency[i]:
            if j not in dist:
                dist[j] = dist[i] + 1
                if j == iv:
                    return dist[j]
                queue.append(j)
    return UNREACHABLE


def automorphism_check(g: Graph, sigma: dict) -> bool:
    """True iff the vertex bijection preserves adjacency and non-adjacency."""
    verts = set(g.vertices)
    if set(sigma.keys()) != verts or set(sigma.values()) != verts:
        raise ValueError("sigma must be a bijection on the vertex set")
    index = {v: i for i, v in enumerate(g.vertices)}
    for i, v in enumerate(g.vertices):
        image_nbrs = {index[sigma[g.vertices[j]]] for j in g.adjacency[i]}
        if image_nbrs != g.adjacency[index[sigma[v]]]:
            return False
    return True


def curve_set_table(cs: CurveSet) -> list[dict]:
    """Serializable rows: id, payload descriptor, intersection row."""
    rows = []
    for i, v in enumerate(cs.vertices):
        p = cs.payloads[i]
        rows.append(
            {
                "id": v,
                "payload": f"trace dir={p.direction} hol={p.holonomy}",
                "i_row": [str(x) for x in cs.i_matrix[i]],
            }
        )
    return rows
