"""Input generators for the benchmark, written without the package.

Graphs are plain ``(n, edges)`` pairs on vertices 0..n-1 with edges as
sorted ``(u, v)`` tuples, u < v.  Everything random draws from a
``random.Random`` the caller seeds, so one seed gives one set of inputs.
The program under test only ever sees the graph6 strings and embedding
data produced here.
"""

from __future__ import annotations

import itertools
import math
import random


def norm_edges(edges) -> list[tuple[int, int]]:
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def graph6(n: int, edges) -> str:
    """graph6 encoding: the vertex count, then the upper triangle column
    by column, six bits to a byte."""
    if not 0 <= n <= 258047:
        raise ValueError("graph6 holds 0..258047 vertices here")
    head = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
    eset = set(norm_edges(edges))
    bits = [1 if (i, j) in eset else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [sum(b << (5 - k) for k, b in enumerate(bits[i:i + 6])) + 63
            for i in range(0, len(bits), 6)]
    return "".join(chr(c + 63) for c in head) + "".join(chr(c) for c in body)


def adjacency(n: int, edges) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_connected(n: int, edges, removed: int | None = None) -> bool:
    adj = adjacency(n, edges)
    alive = [v for v in range(n) if v != removed]
    if not alive:
        return True
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w != removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(alive)


def is_biconnected(n: int, edges) -> bool:
    return n >= 3 and is_connected(n, edges) and \
        all(is_connected(n, edges, removed=v) for v in range(n))


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return norm_edges((perm[u], perm[v]) for u, v in edges)


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------


def complete(n: int):
    return n, norm_edges(itertools.combinations(range(n), 2))


def complete_bipartite(a: int, b: int):
    return a + b, norm_edges((i, a + j) for i in range(a) for j in range(b))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, norm_edges(outer + spokes + inner)


def cube_q3():
    return 8, norm_edges((v, v ^ (1 << k)) for v in range(8) for k in range(3))


def disjoint_union(g1, g2):
    (n1, e1), (n2, e2) = g1, g2
    return n1 + n2, norm_edges(list(e1) + [(u + n1, v + n1) for u, v in e2])


def one_sum(g1, g2):
    """Identify vertex 0 of g1 with vertex 0 of g2 (a wedge at a cutvertex)."""
    (n1, e1), (n2, e2) = g1, g2

    def lift(v):
        return 0 if v == 0 else v + n1 - 1
    return n1 + n2 - 1, norm_edges(list(e1) + [(lift(u), lift(v)) for u, v in e2])


def grid(rows: int, cols: int):
    """Planar rows x cols grid; vertex r*cols + c sits at (c, r)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, norm_edges(edges)


# ---------------------------------------------------------------------------
# Random graphs
# ---------------------------------------------------------------------------


def random_subcubic(rng: random.Random, beta: int, subdivisions: int):
    """A random 2-connected graph of cycle rank ``beta`` and maximum
    degree 3: a uniformly paired cubic graph on 2(beta - 1) vertices,
    rejected until simple and 2-connected, with ``subdivisions`` random
    edges subdivided and the vertices shuffled."""
    n = 2 * (beta - 1)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = [(points[i], points[i + 1]) for i in range(0, len(points), 2)]
        edges = norm_edges(pairs)
        if all(u != v for u, v in pairs) and len(edges) == len(pairs) \
                and is_biconnected(n, edges):
            break
    for _ in range(subdivisions):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, n), (v, n)]
        n += 1
    return n, relabel(n, edges, rng)


# ---------------------------------------------------------------------------
# Embedded graphs
# ---------------------------------------------------------------------------


def torus_grid(rows: int, cols: int):
    """The rows x cols quadrangulation of the torus.  Vertex (i, j) is
    ``cols * i + j``; rotations list up, right, down, left, so every
    face is a 4-cycle and all signatures are +1."""
    def vid(i, j):
        return cols * (i % rows) + (j % cols)
    edges = set()
    rotation = {}
    for i in range(rows):
        for j in range(cols):
            edges.add((vid(i, j), vid(i + 1, j)))
            edges.add((vid(i, j), vid(i, j + 1)))
            rotation[vid(i, j)] = [vid(i - 1, j), vid(i, j + 1),
                                   vid(i + 1, j), vid(i, j - 1)]
    return rows * cols, norm_edges(edges), rotation


def planar_grid_rotation(rows: int, cols: int) -> dict[int, list[int]]:
    """Counterclockwise rotations of the straight-line grid drawing."""
    n, edges = grid(rows, cols)
    adj = adjacency(n, edges)

    def angle(v, w):
        (rv, cv), (rw, cw) = divmod(v, cols), divmod(w, cols)
        return math.atan2(rw - rv, cw - cv)
    return {v: sorted(adj[v], key=lambda w: angle(v, w)) for v in range(n)}


def random_embedding(rng: random.Random, n: int, edges):
    """Shuffled rotations and random signatures."""
    adj = adjacency(n, edges)
    rotation = {}
    for v in range(n):
        order = list(adj[v])
        rng.shuffle(order)
        rotation[v] = order
    signature = {e: rng.choice((-1, 1)) for e in edges}
    return rotation, signature


def simple_cycles(n: int, edges) -> list[tuple[int, ...]]:
    """Every simple cycle once, as a vertex tuple that starts at its
    smallest vertex and goes toward the smaller of its two neighbours."""
    adj = adjacency(n, edges)
    out = []
    for s in range(n):
        path = [s]
        on_path = {s}

        def extend(v):
            for w in adj[v]:
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    out.append(tuple(path))
                elif w > s and w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    extend(w)
                    path.pop()
                    on_path.discard(w)
        extend(s)
    return out
