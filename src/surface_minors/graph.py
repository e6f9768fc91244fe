"""Simple undirected graphs with stable vertex ids.

Substrate for everything else: minor operations, blocks, bridges,
separators, and graph6 / JSON interchange.  Graphs are immutable values;
every operation returns a fresh graph, so results can be shared freely
between workers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import networkx as nx

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

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edge_set

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

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

    def is_subgraph_of(self, other: "Graph") -> bool:
        return (set(self.vertices) <= set(other.vertices)
                and self.edge_set <= other.edge_set)

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

    def spanning_tree(self) -> tuple[Edge, ...]:
        """BFS spanning tree (forest for disconnected graphs), rooted at the
        smallest vertex id of each component.  Deterministic."""
        tree: list[Edge] = []
        seen: set[int] = set()
        for root in self.vertices:
            if root in seen:
                continue
            seen.add(root)
            queue = [root]
            while queue:
                nxt: list[int] = []
                for u in queue:
                    for w in self._adj[u]:
                        if w not in seen:
                            seen.add(w)
                            tree.append(edge_key(u, w))
                            nxt.append(w)
                queue = nxt
        return tuple(sorted(tree))

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

    def to_nx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self.vertices)
        g.add_edges_from(self.edges)
        return g

    @staticmethod
    def from_nx(g: nx.Graph) -> "Graph":
        return Graph.build(g.nodes, g.edges)

    def relabeled(self) -> tuple["Graph", dict[int, int]]:
        """Relabel vertices to 0..n-1 in sorted id order."""
        lab = {v: i for i, v in enumerate(self.vertices)}
        g = Graph.build(range(self.n), [(lab[u], lab[v]) for u, v in self.edges])
        return g, lab

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
    g, lab = graph.relabeled()
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
    g, lab = graph.relabeled()
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
    ids = obj.get("vertex_ids", list(range(n)))
    if len(ids) != n:
        raise GraphError("graph json: vertex_ids length disagrees with n")
    edges = [(ids[u], ids[v]) for u, v in obj["edges"]]
    return Graph.build(ids, edges)


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


def one_step_minors(graph: Graph, dedup: bool = False) -> list[tuple[MinorOp, Graph]]:
    """All graphs one minor operation away.

    With ``dedup`` the list keeps one representative per (operation kind,
    isomorphism class) pair; representatives follow enumeration order, so
    the output is deterministic.
    """
    out: list[tuple[MinorOp, Graph]] = []
    for v in graph.vertices:
        out.append((("delete-vertex", v), delete_vertex(graph, v)))
    for e in graph.edges:
        out.append((("delete-edge", e), delete_edge(graph, *e)))
    for e in graph.edges:
        out.append((("contract-edge", e), contract_edge(graph, *e)))
    if not dedup:
        return out
    kept: list[tuple[MinorOp, Graph]] = []
    for op, g in out:
        if not any(op[0] == kop[0] and is_isomorphic(g, kg) for kop, kg in kept):
            kept.append((op, g))
    return kept


# ---------------------------------------------------------------------------
# Isomorphism helpers
# ---------------------------------------------------------------------------


def _fingerprint(graph: Graph) -> tuple:
    """Cheap isomorphism-invariant bucket key (degree sequence + 2 rounds
    of neighborhood color refinement)."""
    colors = {v: graph.degree(v) for v in graph.vertices}
    for _ in range(2):
        colors = {v: hash((colors[v], tuple(sorted(colors[w] for w in graph.neighbors(v)))))
                  for v in graph.vertices}
    return (graph.n, graph.m, tuple(sorted(colors.values())))


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if (a.n, a.m) != (b.n, b.m):
        return False
    if _fingerprint(a) != _fingerprint(b):
        return False
    return nx.is_isomorphic(a.to_nx(), b.to_nx())


def dedupe_isomorphic(graphs: Iterable[Graph]) -> list[Graph]:
    """One representative per isomorphism class, in enumeration order.

    Exact at desk scale: candidates are bucketed by refinement
    fingerprint and settled with VF2.
    """
    buckets: dict[tuple, list[Graph]] = {}
    out = []
    for g in graphs:
        key = _fingerprint(g)
        bucket = buckets.setdefault(key, [])
        if not any(nx.is_isomorphic(g.to_nx(), h.to_nx()) for h in bucket):
            bucket.append(g)
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# Blocks and bridges
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


@dataclass(frozen=True)
class Bridge:
    """A bridge of H on a subgraph H0: either a chord edge or an attached
    component together with its connecting edges.  Attach vertices lie on
    H0 and are not part of the body's interior."""

    kind: str  # "chord-edge" | "attached-component"
    body: Graph
    attaches: frozenset[int]


def bridges_on(host: Graph, h0: Graph) -> list[Bridge]:
    """Bridges of ``host`` on the subgraph ``h0``.

    Their edge sets partition E(host) - E(h0).
    """
    if not h0.is_subgraph_of(host):
        raise GraphError("bridges_on: H0 is not a subgraph of H")
    h0v = set(h0.vertices)
    out: list[Bridge] = []
    for u, v in host.edges:
        if (u, v) in h0.edge_set:
            continue
        if u in h0v and v in h0v:
            body = host.edge_subgraph([(u, v)])
            out.append(Bridge("chord-edge", body, frozenset((u, v))))
    rest = host.subgraph([v for v in host.vertices if v not in h0v])
    for comp in rest.components():
        edges = [e for e in host.edges
                 if (e[0] in comp or e[1] in comp)]
        attaches = frozenset(x for e in edges for x in e if x in h0v)
        body = host.edge_subgraph(edges, extra_vertices=comp)
        out.append(Bridge("attached-component", body, attaches))
    out.sort(key=lambda b: (b.body.vertices, b.body.edges))
    return out


# ---------------------------------------------------------------------------
# Separations and separators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Separation:
    """A separation (A, B): A ∪ B = G and A ∩ B has no edge."""

    side_a: Graph
    side_b: Graph

    @property
    def order(self) -> int:
        return len(set(self.side_a.vertices) & set(self.side_b.vertices))

    @property
    def separator(self) -> frozenset[int]:
        return frozenset(set(self.side_a.vertices) & set(self.side_b.vertices))


def separations_of_order(graph: Graph, k: int) -> list[Separation]:
    """All proper separations (A, B) of order exactly k, up to swapping
    sides.  Each side gets the components it induces plus the separator;
    a separator edge (both ends in the separator) goes to side A."""
    out = []
    for cut in itertools.combinations(graph.vertices, k):
        cutset = set(cut)
        rest = graph.subgraph([v for v in graph.vertices if v not in cutset])
        comps = rest.components()
        if len(comps) < 2:
            continue
        # one side = a nonempty proper subset of components; avoid mirror dups
        for r in range(1, len(comps)):
            for group in itertools.combinations(range(len(comps)), r):
                if 0 not in group:
                    continue  # fix component 0 on side A to kill mirrors
                av = set(cutset)
                for gi in group:
                    av |= comps[gi]
                bv = set(cutset) | {v for i, c in enumerate(comps)
                                    if i not in group for v in c}
                a_edges = [e for e in graph.edges if e[0] in av and e[1] in av]
                b_edges = [e for e in graph.edges
                           if e[0] in bv and e[1] in bv
                           and not (e[0] in cutset and e[1] in cutset)]
                out.append(Separation(graph.edge_subgraph(a_edges, av),
                                      graph.edge_subgraph(b_edges, bv)))
    return out


def find_separator(graph: Graph, k: int) -> frozenset[int] | None:
    """A vertex set of size <= k whose removal disconnects the graph, or
    None when the graph is (k+1)-connected.  Exact (max-flow based)."""
    if graph.n == 0:
        return None
    if not graph.is_connected():
        return frozenset()
    if graph.n <= k + 1:
        return None  # nothing of size <= k can disconnect so few vertices
    g = graph.to_nx()
    nonadjacent = [(u, v) for u, v in itertools.combinations(graph.vertices, 2)
                   if not graph.has_edge(u, v)]
    if not nonadjacent:
        return None  # complete graph
    best: set[int] | None = None
    for u, v in nonadjacent:
        cut = nx.minimum_node_cut(g, u, v)
        if best is None or len(cut) < len(best):
            best = set(cut)
            if len(best) == 0:
                break
    if best is not None and len(best) <= k:
        return frozenset(best)
    return None
