"""Simple undirected graphs with stable vertex ids.

Substrate for everything else: minor operations, isomorphism grouping,
blocks, and graph6 / JSON interchange.  Graphs are immutable values;
every operation returns a fresh graph, so results can be shared freely
between workers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]

GRAPH6_HEADER = ">>graph6<<"


class GraphError(ValueError):
    """Invalid graph construction or a reference to a missing element."""


def edge_key(u: int, v: int) -> Edge:
    """Normalized (min, max) form of an undirected edge."""
    if u == v:
        raise GraphError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph.

    ``vertices`` is a sorted tuple of opaque integer ids, ``edges`` a
    sorted tuple of (u, v) pairs with u < v.  Use :meth:`build` rather
    than the raw constructor so the invariants are checked.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def build(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> "Graph":
        vs = tuple(sorted(set(int(v) for v in vertices)))
        vset = set(vs)
        es = set()
        for u, v in edges:
            e = edge_key(int(u), int(v))
            if e[0] not in vset or e[1] not in vset:
                raise GraphError(f"edge {e} references an undeclared vertex")
            es.add(e)
        return Graph(vs, tuple(sorted(es)))

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _adj(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"vertex {v} not in graph") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def _edge_index(self) -> dict[Edge, int]:
        """Position of each edge in ``edges`` (darts are numbered from it)."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def _out_darts(self) -> dict[int, dict[int, int]]:
        """Per vertex, its dart to each neighbour: edge i = ``edges[i]`` =
        (u, v) has dart 2i from u to v and dart 2i + 1 back."""
        out: dict[int, dict[int, int]] = {v: {} for v in self.vertices}
        for i, (u, v) in enumerate(self.edges):
            out[u][v] = 2 * i
            out[v][u] = 2 * i + 1
        return out

    @cached_property
    def _dart_ends(self) -> tuple[Edge, ...]:
        """(tail, head) of each dart, numbered as in ``_out_darts``."""
        return tuple(d for u, v in self.edges for d in ((u, v), (v, u)))

    # -- subgraphs and components ----------------------------------------

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertices."""
        vs = set(vertices)
        for v in vs:
            if v not in self._adj:
                raise GraphError(f"vertex {v} not in graph")
        es = [e for e in self.edges if e[0] in vs and e[1] in vs]
        return Graph(tuple(sorted(vs)), tuple(es))

    def edge_subgraph(self, edges: Iterable[tuple[int, int]],
                      extra_vertices: Iterable[int] = ()) -> "Graph":
        es = sorted({edge_key(u, v) for u, v in edges})
        for e in es:
            if e not in self.edge_set:
                raise GraphError(f"edge {e} not in graph")
        vs = {v for e in es for v in e} | set(extra_vertices)
        return Graph(tuple(sorted(vs)), tuple(es))

    def components(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        out = []
        for root in self.vertices:
            if root in seen:
                continue
            comp = {root}
            stack = [root]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    @cached_property
    def bfs(self) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
        """Level-order BFS from the smallest vertex id of each component:
        the visiting order and the sorted tree edges (a spanning forest).
        Deterministic."""
        order: list[int] = []
        tree: list[Edge] = []
        seen: set[int] = set()
        for root in self.vertices:
            if root in seen:
                continue
            seen.add(root)
            queue = [root]
            while queue:
                order.extend(queue)
                nxt: list[int] = []
                for u in queue:
                    for w in self._adj[u]:
                        if w not in seen:
                            seen.add(w)
                            tree.append(edge_key(u, w))
                            nxt.append(w)
                queue = nxt
        return tuple(order), tuple(sorted(tree))

    def girth(self) -> int | None:
        """Length of a shortest cycle, or None for a forest.  A BFS from
        each root meets every cycle through the root at a non-tree edge,
        so the minimum over roots is exact."""
        best = None
        for root in self.vertices:
            dist = {root: 0}
            parent = {root: None}
            queue = [root]
            for u in queue:
                if best is not None and 2 * dist[u] >= best:
                    break
                for w in self._adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        queue.append(w)
                    elif parent[u] != w:
                        length = dist[u] + dist[w] + 1
                        if best is None or length < best:
                            best = length
        return best

    # -- conversions ------------------------------------------------------

    def to_nx(self):
        """The graph as a ``networkx.Graph``; networkx is imported here, so
        importing the package does not load it."""
        import networkx as nx
        g = nx.Graph()
        g.add_nodes_from(self.vertices)
        g.add_edges_from(self.edges)
        return g

    def relabeled(self) -> "Graph":
        """Relabel vertices to 0..n-1 in sorted id order."""
        lab = {v: i for i, v in enumerate(self.vertices)}
        return Graph.build(range(self.n), [(lab[u], lab[v]) for u, v in self.edges])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# graph6 interchange
# ---------------------------------------------------------------------------


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string into a graph on vertices 0..n-1.

    Malformed input is rejected with the byte offset of the offending
    character.
    """
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    data = s.encode("ascii", errors="replace")
    pos = 0

    def take(count: int) -> list[int]:
        nonlocal pos
        vals = []
        for _ in range(count):
            if pos >= len(data):
                raise GraphError(f"graph6: truncated input at byte {pos}")
            b = data[pos]
            if not (63 <= b <= 126):
                raise GraphError(f"graph6: invalid byte {b} at offset {pos}")
            vals.append(b - 63)
            pos += 1
        return vals

    first = take(1)[0]
    if first < 63:
        n = first
    else:
        nxt = take(1)[0]
        if nxt != 63:
            vals = [nxt] + take(2)
            n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        else:
            vals = take(6)
            n = 0
            for v in vals:
                n = (n << 6) | v

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    vals = take(nbytes)
    if pos != len(data):
        raise GraphError(f"graph6: trailing data at byte {pos}")
    bits = []
    for v in vals:
        for k in range(5, -1, -1):
            bits.append((v >> k) & 1)
    if any(bits[nbits:]):
        raise GraphError(f"graph6: nonzero padding bits at byte {pos - 1}")

    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph.build(range(n), edges)


def graph6_encode(graph: Graph) -> str:
    """Encode a graph as graph6, relabeling vertices to 0..n-1 sorted."""
    g = graph.relabeled()
    n = g.n
    out: list[int] = []
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.extend([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise GraphError("graph6: graph too large to encode")
    bits = []
    eset = g.edge_set
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in eset else 0)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        byte = 0
        for b in bits[k:k + 6]:
            byte = (byte << 1) | b
        out.append(byte + 63)
    return "".join(chr(b) for b in out)


def graph_to_json(graph: Graph) -> str:
    """Canonical JSON form ``{"edges": [[u, v], ...], "n": n}``.

    Vertices are relabeled to 0..n-1; original ids are kept under
    ``vertex_ids`` when they are not already 0..n-1.
    """
    g = graph.relabeled()
    obj: dict = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if graph.vertices != tuple(range(graph.n)):
        obj["vertex_ids"] = list(graph.vertices)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"graph json: {exc.msg} at byte {exc.pos}") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphError("graph json: expected object with 'n' and 'edges'")
    n = obj["n"]
    if not _is_int(n) or n < 0:
        raise GraphError("graph json: 'n' must be a nonnegative integer")
    ids = obj.get("vertex_ids", list(range(n)))
    if not isinstance(ids, list) or not all(map(_is_int, ids)):
        raise GraphError("graph json: 'vertex_ids' must be a list of integers")
    if len(ids) != n:
        raise GraphError("graph json: vertex_ids length disagrees with n")
    pairs = obj["edges"]
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(_is_int(x) and 0 <= x < n for x in p)
            for p in pairs):
        raise GraphError("graph json: 'edges' must be a list of [u, v] with 0 <= u, v < n")
    return Graph.build(ids, [(ids[u], ids[v]) for u, v in pairs])


def _is_int(x) -> bool:
    """Whether a decoded JSON value is an integer (JSON booleans are not)."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph(text: str) -> Graph:
    """Accept either a graph6 string or the JSON `{n, edges}` form."""
    s = text.strip()
    if s.startswith("{"):
        return graph_from_json(s)
    return graph6_decode(s)


# ---------------------------------------------------------------------------
# Minor operations
# ---------------------------------------------------------------------------

MinorOp = tuple  # ("delete-vertex", v) | ("delete-edge", (u,v)) | ("contract-edge", (u,v))


def delete_vertex(graph: Graph, v: int) -> Graph:
    if not graph.has_vertex(v):
        raise GraphError(f"delete-vertex: vertex {v} not in graph")
    return Graph(tuple(x for x in graph.vertices if x != v),
                 tuple(e for e in graph.edges if v not in e))


def delete_edge(graph: Graph, u: int, v: int) -> Graph:
    e = edge_key(u, v)
    if e not in graph.edge_set:
        raise GraphError(f"delete-edge: edge {e} not in graph")
    return Graph(graph.vertices, tuple(x for x in graph.edges if x != e))


def contract_edge(graph: Graph, u: int, v: int) -> Graph:
    """Contract edge uv, keeping the lower-numbered endpoint id.

    Loops are discarded and parallel edges merged, so the result is
    simple.
    """
    e = edge_key(u, v)
    if e not in graph.edge_set:
        raise GraphError(f"contract-edge: edge {e} not in graph")
    keep, gone = e
    edges = set()
    for a, b in graph.edges:
        if (a, b) == e:
            continue
        a2 = keep if a == gone else a
        b2 = keep if b == gone else b
        if a2 != b2:
            edges.add(edge_key(a2, b2))
    return Graph(tuple(x for x in graph.vertices if x != gone),
                 tuple(sorted(edges)))


def apply_minor_op(graph: Graph, op: MinorOp) -> Graph:
    kind = op[0]
    if kind == "delete-vertex":
        return delete_vertex(graph, op[1])
    if kind == "delete-edge":
        return delete_edge(graph, *op[1])
    if kind == "contract-edge":
        return contract_edge(graph, *op[1])
    raise GraphError(f"unknown minor operation {kind!r}")


def one_step_minors(graph: Graph) -> list[tuple[MinorOp, Graph]]:
    """All graphs one minor operation away: vertex deletions, then edge
    deletions, then edge contractions."""
    return ([(("delete-vertex", v), delete_vertex(graph, v)) for v in graph.vertices]
            + [(("delete-edge", e), delete_edge(graph, *e)) for e in graph.edges]
            + [(("contract-edge", e), contract_edge(graph, *e)) for e in graph.edges])


# ---------------------------------------------------------------------------
# Isomorphism helpers
# ---------------------------------------------------------------------------


class _Refined:
    """A graph as vertex indices 0..n-1 with its stable colouring.

    Colour refinement starts from degrees; each round gives every vertex
    the rank of (its colour, its sorted neighbour colours) among the
    graph's distinct signatures, until the number of colours stops
    growing.  Ranks come from sorted signatures, never from vertex ids,
    so an isomorphism maps each vertex to one of the same colour, and
    ``key`` (size, rounds and colour multiset) is equal on isomorphic
    graphs.
    """

    __slots__ = ("key", "colours", "nbrs", "adj", "classes")

    def __init__(self, graph: Graph):
        index = {v: i for i, v in enumerate(graph.vertices)}
        nbrs = [[index[w] for w in graph._adj[v]] for v in graph.vertices]
        colours = [len(ns) for ns in nbrs]
        count, rounds = len(set(colours)), 0
        while True:
            sigs = [(c, tuple(sorted(colours[j] for j in ns)))
                    for c, ns in zip(colours, nbrs)]
            rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
            colours = [rank[s] for s in sigs]
            rounds += 1
            if len(rank) == count:
                break
            count = len(rank)
        self.key = (graph.n, graph.m, rounds, tuple(sorted(colours)))
        self.colours = colours
        self.nbrs = nbrs
        self.adj = [sum(1 << j for j in ns) for ns in nbrs]
        self.classes: dict[int, list[int]] = {}
        for i, c in enumerate(colours):
            self.classes.setdefault(c, []).append(i)

    def plan(self) -> tuple[list[int], list[list[int]]]:
        """Colours of the vertices in matching order, and for each
        position the earlier positions adjacent to it.  The order starts
        in the rarest colour class and then always takes a vertex with
        the most neighbours already placed (rarer colour first), so each
        component is placed in a connected order."""
        n = len(self.colours)
        placed = [False] * n
        links = [0] * n
        position = [0] * n
        order: list[int] = []
        for _ in range(n):
            v = min((i for i in range(n) if not placed[i]),
                    key=lambda i: (-links[i], len(self.classes[self.colours[i]]),
                                   self.colours[i], i))
            placed[v] = True
            position[v] = len(order)
            order.append(v)
            for w in self.nbrs[v]:
                links[w] += 1
        back = [[position[w] for w in self.nbrs[v] if position[w] < position[v]]
                for v in order]
        return [self.colours[v] for v in order], back


def _isomorphic(plan: tuple[list[int], list[list[int]]], other: _Refined) -> bool:
    """Backtracking search for an isomorphism onto ``other`` from the
    graph whose ``plan`` is given (their keys must be equal).  Position
    i of the plan may take an unused vertex of its colour whose
    adjacency to the vertices already taken is exactly the image of its
    own; True only once every position is taken, so the map is an
    isomorphism."""
    colours, back = plan
    n = len(colours)
    if n == 0:
        return True
    adj, classes = other.adj, other.classes
    image = [0] * n       # bit of the vertex taken at each position
    need = [0] * n        # bits the candidate at each position must see
    tries = [iter(classes[colours[0]])] + [None] * (n - 1)
    used, i = 0, 0
    while True:
        for w in tries[i]:
            bit = 1 << w
            if not used & bit and adj[w] & used == need[i]:
                break
        else:
            i -= 1
            if i < 0:
                return False
            used ^= image[i]
            continue
        image[i] = bit
        used |= bit
        i += 1
        if i == n:
            return True
        need[i] = sum(image[j] for j in back[i])
        tries[i] = iter(classes[colours[i]])


def group_isomorphic(graphs: Sequence[Graph]) -> list[list[int]]:
    """Indices of the graphs grouped by isomorphism class.  Classes are in
    the order of their first member and members in input order, so the
    first member of each class is its representative in enumeration order.

    Each graph is refined once to a stable colouring; graphs are bucketed
    by the refinement key, and a graph is compared only with the class
    representatives in its bucket.  The comparison searches bijections
    that keep colours and adjacency and answers yes only with a complete
    one in hand, while isomorphic graphs always share a key and every
    isomorphism keeps colours, so the grouping is exact.
    """
    classes: list[list[int]] = []
    buckets: dict[tuple, list[tuple[tuple, list[int]]]] = {}
    for i, g in enumerate(graphs):
        r = _Refined(g)
        bucket = buckets.setdefault(r.key, [])
        for plan, members in bucket:
            if _isomorphic(plan, r):
                members.append(i)
                break
        else:
            bucket.append((r.plan(), [i]))
            classes.append(bucket[-1][1])
    return classes


def is_isomorphic(a: Graph, b: Graph) -> bool:
    return len(group_isomorphic([a, b])) == 1


def dedupe_isomorphic(graphs: Iterable[Graph]) -> list[Graph]:
    """One representative per isomorphism class, in enumeration order."""
    graphs = list(graphs)
    return [graphs[cls[0]] for cls in group_isomorphic(graphs)]


# ---------------------------------------------------------------------------
# Blocks and cutvertices
# ---------------------------------------------------------------------------


def blocks(graph: Graph) -> tuple[list[Graph], frozenset[int]]:
    """2-connected blocks and cutvertices.

    Blocks are the equivalence classes of the cycle-sharing relation on
    edges; every edge lies in exactly one block.  Isolated vertices
    belong to no block.  Cutvertices are the vertices lying in two or
    more blocks.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    counter = itertools.count(1)
    edge_stack: list[Edge] = []
    block_edge_sets: list[list[Edge]] = []

    for root in graph.vertices:
        if root in index:
            continue
        # iterative Hopcroft-Tarjan
        stack: list[tuple[int, int | None, Iterator[int]]] = []
        index[root] = low[root] = next(counter)
        stack.append((root, None, iter(graph.neighbors(root))))
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    # skip one occurrence of the tree edge only (simple graph)
                    parent = None
                    stack[-1] = (v, None, it)
                    continue
                if w not in index:
                    index[w] = low[w] = next(counter)
                    edge_stack.append(edge_key(v, w))
                    stack.append((w, v, iter(graph.neighbors(w))))
                    advanced = True
                    break
                elif index[w] < index[v]:
                    edge_stack.append(edge_key(v, w))
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    # u is a cut point: pop the block containing edge uv
                    blk: list[Edge] = []
                    while edge_stack:
                        e = edge_stack.pop()
                        blk.append(e)
                        if e == edge_key(u, v):
                            break
                    if blk:
                        block_edge_sets.append(blk)

    blks = [graph.edge_subgraph(es) for es in block_edge_sets]
    seen_in: dict[int, int] = {}
    cut = set()
    for b in blks:
        for v in b.vertices:
            seen_in[v] = seen_in.get(v, 0) + 1
            if seen_in[v] > 1:
                cut.add(v)
    blks.sort(key=lambda b: (b.vertices, b.edges))
    return blks, frozenset(cut)

