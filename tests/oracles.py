"""Independent oracles for the test suite.

Everything here recomputes results through a different route than the
package: the face counter follows the traversal rule with plain dicts,
the genus oracle enumerates the full rotation-by-signature product with
no pruning and no symmetry reduction, treewidth is minimized over all
elimination orderings, and separators come from exhaustive subset
checks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import networkx as nx

from surface_minors.graph import Graph, edge_key


# ---------------------------------------------------------------------------
# Naive face counting / genus
# ---------------------------------------------------------------------------


def naive_orbit_lengths(graph: Graph, rotation: dict[int, tuple[int, ...]],
                        signature: dict[tuple[int, int], int]) -> list[int]:
    """Lengths of the orbits of (tail, head, sense) states, walked with
    dicts.  Each face is two orbits of its length, one per sense."""
    index = {}
    for v, order in rotation.items():
        for i, w in enumerate(order):
            index[(v, w)] = i
    states = set()
    for u, v in graph.edges:
        states.update({(u, v, 1), (u, v, -1), (v, u, 1), (v, u, -1)})
    lengths = []
    while states:
        start = min(states)
        cur = start
        length = 0
        while True:
            states.discard(cur)
            length += 1
            u, v, sense = cur
            sense2 = sense * signature[edge_key(u, v)]
            order = rotation[v]
            i = index[(v, u)]
            w = order[(i + 1) % len(order)] if sense2 == 1 else order[(i - 1) % len(order)]
            cur = (v, w, sense2)
            if cur == start:
                break
        lengths.append(length)
    return lengths


def naive_face_count(graph: Graph, rotation: dict[int, tuple[int, ...]],
                     signature: dict[tuple[int, int], int]) -> int:
    """Count faces by walking (tail, head, sense) states with dicts."""
    if graph.m == 0:
        return 1
    orbits = len(naive_orbit_lengths(graph, rotation, signature))
    assert orbits % 2 == 0
    return orbits // 2


def naive_genus(graph: Graph, rotation, signature) -> int:
    f = naive_face_count(graph, rotation, signature)
    return 2 - (graph.n - graph.m + f)


def all_rotation_signatures(graph: Graph):
    """Every (rotation, signature, orientable) with signatures +1 on a
    spanning tree: the full product, no pruning or symmetry reduction."""
    tree = set(graph.spanning_tree())
    cotree = [e for e in graph.edges if e not in tree]
    per_vertex = []
    for v in graph.vertices:
        ns = graph.neighbors(v)
        if len(ns) <= 2:
            per_vertex.append([ns])
        else:
            per_vertex.append([(ns[0],) + p for p in itertools.permutations(ns[1:])])
    for rots in itertools.product(*per_vertex):
        rotation = dict(zip(graph.vertices, rots))
        for pattern in itertools.product((1, -1), repeat=len(cotree)):
            signature = {e: 1 for e in graph.edges}
            for e, s in zip(cotree, pattern):
                signature[e] = s
            yield rotation, signature, all(s > 0 for s in pattern)


def unpruned_min_genus(graph: Graph) -> tuple[int, int | None]:
    """(orientable minimum, nonorientable minimum) by full enumeration of
    every rotation system against every cotree signature pattern, with no
    pruning or symmetry reduction."""
    assert graph.is_connected()
    orient = None
    nonor = None
    for rotation, signature, orientable in all_rotation_signatures(graph):
        g = naive_genus(graph, rotation, signature)
        if orientable:
            orient = g if orient is None else min(orient, g)
        else:
            nonor = g if nonor is None else min(nonor, g)
    return orient, nonor


# ---------------------------------------------------------------------------
# Exhaustive separators and treewidth
# ---------------------------------------------------------------------------


def brute_force_separator(graph: Graph, k: int) -> frozenset[int] | None:
    """Smallest separating vertex set of size <= k by subset enumeration."""
    if not graph.is_connected():
        return frozenset()
    for size in range(k + 1):
        for cut in itertools.combinations(graph.vertices, size):
            rest = graph.subgraph([v for v in graph.vertices if v not in cut])
            if rest.n and not rest.is_connected():
                return frozenset(cut)
    return None


def brute_force_treewidth(graph: Graph) -> int:
    """Minimum over all elimination orderings of the maximum clique the
    elimination creates (n <= 9)."""
    assert graph.n <= 9
    best = graph.n - 1
    for order in itertools.permutations(graph.vertices):
        adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
        width = 0
        for v in order:
            nbrs = adj[v]
            width = max(width, len(nbrs))
            if width >= best:
                break
            for a in nbrs:
                adj[a] |= nbrs - {a}
                adj[a].discard(v)
            for a in graph.vertices:
                adj[a].discard(v)
        best = min(best, width)
    return best


# ---------------------------------------------------------------------------
# Matrix-based minor operations
# ---------------------------------------------------------------------------


def adjacency_contract(graph: Graph, u: int, v: int) -> tuple[int, int]:
    """(n, m) of the contraction computed on the adjacency matrix."""
    idx = {x: i for i, x in enumerate(graph.vertices)}
    n = graph.n
    mat = [[0] * n for _ in range(n)]
    for a, b in graph.edges:
        mat[idx[a]][idx[b]] = mat[idx[b]][idx[a]] = 1
    i, j = idx[u], idx[v]
    for k in range(n):
        if mat[j][k]:
            mat[i][k] = mat[k][i] = 1
    mat[i][i] = 0
    keep = [k for k in range(n) if k != j]
    edges = sum(mat[a][b] for ai, a in enumerate(keep) for b in keep[ai + 1:])
    return n - 1, edges


# ---------------------------------------------------------------------------
# Connected graph enumeration up to isomorphism
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def connected_graphs_up_to(max_edges: int) -> tuple[Graph, ...]:
    """All connected graphs with at most ``max_edges`` edges, one per
    isomorphism class.

    Grown by edge count: every connected graph with m edges arises from
    one with m-1 edges by adding an edge between existing vertices (if it
    has a cycle, remove a cycle edge) or attaching a new leaf (if it is a
    tree, remove a leaf).
    """
    levels: list[list[Graph]] = [[Graph.build([0], [])]]
    for m in range(1, max_edges + 1):
        seen: list[tuple[Graph, nx.Graph]] = []
        out: list[Graph] = []
        for g in levels[m - 1]:
            candidates = []
            for u, v in itertools.combinations(g.vertices, 2):
                if not g.has_edge(u, v):
                    candidates.append(Graph.build(g.vertices,
                                                  list(g.edges) + [(u, v)]))
            new = max(g.vertices) + 1
            for u in g.vertices:
                candidates.append(Graph.build(list(g.vertices) + [new],
                                              list(g.edges) + [(u, new)]))
            for cand in candidates:
                cnx = cand.to_nx()
                key = (cand.n, tuple(sorted(d for _, d in cnx.degree())))
                dup = False
                for other, onx in seen:
                    okey = (other.n, tuple(sorted(d for _, d in onx.degree())))
                    if key == okey and nx.is_isomorphic(cnx, onx):
                        dup = True
                        break
                if not dup:
                    seen.append((cand, cnx))
                    out.append(cand)
        levels.append(out)
    return tuple(g for level in levels for g in level)
