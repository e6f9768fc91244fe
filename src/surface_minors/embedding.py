"""Rotation-system embeddings with edge signatures.

An embedding of a graph is a rotation (a cyclic order of incident edges
at each vertex) together with a signature in {-1, +1} per edge.  The
face traversal rule: traverse an edge e = vw from v to w; if the
signature of e is negative, invert the sense in which rotations are
read from here on; leave w along the next edge after e at w in the
current sense.  A facial walk closes when the starting directed edge
recurs in the starting sense.

The traversal is realized on the state space of (directed edge,
orientation flag) pairs; a face corresponds to a mirror pair of orbits
of the successor permutation, so faces come out of orbit counting with
each edge traversed exactly twice overall.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .graph import Edge, Graph, GraphError, edge_key, parse_graph, graph_to_json


class EmbeddingError(ValueError):
    """Embedding inconsistent with its graph, or bad operation input."""


Dart = tuple[int, int]  # directed edge (tail, head)


@dataclass(frozen=True)
class FaceWalk:
    """A closed facial walk, stored as the sequence of darts traversed."""

    darts: tuple[Dart, ...]

    @property
    def size(self) -> int:
        """Number of edge traversals in the walk."""
        return len(self.darts)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(d[0] for d in self.darts)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(edge_key(*d) for d in self.darts)

    @cached_property
    def key(self) -> tuple[Dart, ...]:
        """Canonical form: lexicographic minimum over rotations of the walk
        and of its reversal.  Two walks describe the same face iff their
        keys agree."""
        return min(_cyclic_rotations(self.darts),
                   _cyclic_rotations(tuple((b, a) for a, b in reversed(self.darts))))

    def is_cycle(self) -> bool:
        """True when the walk visits each of its vertices exactly once."""
        return len(self.vertex_set) == len(self.darts)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FaceWalk({'-'.join(str(d[0]) for d in self.darts)})"


def _cyclic_rotations(seq: tuple) -> tuple:
    n = len(seq)
    if n == 0:
        return seq
    return min(seq[i:] + seq[:i] for i in range(n))


@dataclass(frozen=True)
class Embedding:
    """An embedding (rotation, signature) of a simple graph.

    ``rotation`` maps each vertex to the cyclic tuple of its neighbors
    (in a simple graph an edge end at v is named by its other endpoint);
    ``signature`` maps each edge to +1 or -1.  Stored as sorted tuples so
    embeddings are hashable values.
    """

    graph: Graph
    rotation: tuple[tuple[int, tuple[int, ...]], ...]
    signature: tuple[tuple[Edge, int], ...]

    @staticmethod
    def build(graph: Graph,
              rotation: Mapping[int, Sequence[int]] | None = None,
              signature: Mapping[tuple[int, int], int] | None = None) -> "Embedding":
        """Validating constructor.  Missing rotations default to sorted
        neighbor order, missing signatures to +1."""
        rot: dict[int, tuple[int, ...]] = {}
        given = dict(rotation) if rotation is not None else {}
        for v in graph.vertices:
            order = tuple(given.pop(v)) if v in given else graph.neighbors(v)
            if sorted(order) != sorted(graph.neighbors(v)):
                raise EmbeddingError(
                    f"rotation at {v} must list each incident edge end exactly once")
            # canonical cyclic representative: start at the smallest neighbor,
            # so equal embeddings compare equal as values
            if order:
                i = order.index(min(order))
                order = order[i:] + order[:i]
            rot[v] = order
        if given:
            raise EmbeddingError(f"rotation given for unknown vertices {sorted(given)}")
        sig: dict[Edge, int] = {}
        if signature is not None:
            for (u, v), s in signature.items():
                e = edge_key(u, v)
                if e not in graph.edge_set:
                    raise EmbeddingError(f"signature for non-edge {e}")
                if s not in (-1, 1):
                    raise EmbeddingError(f"signature for {e} must be +1 or -1, got {s}")
                sig[e] = s
        for e in graph.edges:
            sig.setdefault(e, 1)
        return Embedding(graph,
                         tuple(sorted((v, tuple(r)) for v, r in rot.items())),
                         tuple(sorted(sig.items())))

    # -- accessors ---------------------------------------------------------

    @cached_property
    def rot(self) -> dict[int, tuple[int, ...]]:
        return dict(self.rotation)

    @cached_property
    def sig(self) -> dict[Edge, int]:
        return dict(self.signature)

    def rotation_at(self, v: int) -> tuple[int, ...]:
        return self.rot[v]

    def edge_signature(self, u: int, v: int) -> int:
        return self.sig[edge_key(u, v)]

    # -- local changes and signature normal forms ---------------------------

    def local_change(self, v: int) -> "Embedding":
        """Invert the rotation at v and flip the signature of every edge
        incident with v.  An involution."""
        return self.local_change_set({v})

    def local_change_set(self, vs: Iterable[int]) -> "Embedding":
        vset = set(vs)
        for v in vset:
            if not self.graph.has_vertex(v):
                raise EmbeddingError(f"vertex {v} not in graph")
        rot = {v: (tuple(reversed(r)) if v in vset else r)
               for v, r in self.rotation}
        sigd = {e: (-s if (e[0] in vset) != (e[1] in vset) else s)
                for e, s in self.signature}
        return Embedding.build(self.graph, rot, sigd)

    def normalize_signatures(self, tree: Sequence[Edge] | None = None) -> "Embedding":
        """An equivalent embedding whose signature is +1 on every edge of
        the given spanning tree (default: the BFS tree)."""
        if tree is None:
            tree = self.graph.spanning_tree()
        tset = {edge_key(*e) for e in tree}
        if not _is_spanning_forest(self.graph, tset):
            raise EmbeddingError("normalize_signatures: not a spanning tree of the graph")
        flip: set[int] = set()
        assigned: dict[int, bool] = {}
        tadj: dict[int, list[int]] = {v: [] for v in self.graph.vertices}
        for u, v in tset:
            tadj[u].append(v)
            tadj[v].append(u)
        for root in self.graph.vertices:
            if root in assigned:
                continue
            assigned[root] = False
            stack = [root]
            while stack:
                u = stack.pop()
                for w in tadj[u]:
                    if w not in assigned:
                        assigned[w] = assigned[u] ^ (self.sig[edge_key(u, w)] < 0)
                        stack.append(w)
        flip = {v for v, f in assigned.items() if f}
        return self.local_change_set(flip) if flip else self

    def cycle_signature(self, cycle: Sequence[int]) -> int:
        """Product of the signature over the edges of the cycle; +1 means
        two-sided.  Invariant under local changes."""
        return self._signature_of(check_cycle(self.graph, cycle))

    def _signature_of(self, cyc: tuple[int, ...]) -> int:
        """``cycle_signature`` of a cycle that ``check_cycle`` returned."""
        s = 1
        for i in range(len(cyc)):
            s *= self.sig[edge_key(cyc[i], cyc[(i + 1) % len(cyc)])]
        return s

    def is_orientable(self) -> bool:
        """True iff every cycle is two-sided: after normalizing on a
        spanning tree, all cotree signatures are +1."""
        norm = self.normalize_signatures()
        tset = set(self.graph.spanning_tree())
        return all(s > 0 for e, s in norm.signature if e not in tset)

    # -- equivalence --------------------------------------------------------

    def equivalent(self, other: "Embedding") -> bool:
        """Whether some set of local changes maps this embedding to the
        other.  Decided directly: each vertex's rotation constrains its
        membership in the flipped set, signatures give a parity
        constraint per edge, and the system is solved per component."""
        if self.graph != other.graph:
            raise EmbeddingError("equivalent: embeddings of different graphs")
        allowed: dict[int, set[bool]] = {}
        for v in self.graph.vertices:
            a, b = self.rot[v], other.rot[v]
            opts = set()
            if _cyclic_equal(a, b):
                opts.add(False)
            if _cyclic_equal(tuple(reversed(a)), b):
                opts.add(True)
            if not opts:
                return False
            allowed[v] = opts
        need = {e: (self.sig[e] != other.sig[e]) for e in self.graph.edge_set}
        assigned: dict[int, bool] = {}
        for comp in self.graph.components():
            root = min(comp)
            ok = False
            for start in allowed[root]:
                trial = {root: start}
                stack = [root]
                good = True
                while stack and good:
                    u = stack.pop()
                    for w in self.graph.neighbors(u):
                        want = trial[u] ^ need[edge_key(u, w)]
                        if w in trial:
                            if trial[w] != want:
                                good = False
                                break
                        else:
                            if want not in allowed[w]:
                                good = False
                                break
                            trial[w] = want
                            stack.append(w)
                if good:
                    assigned.update(trial)
                    ok = True
                    break
            if not ok:
                return False
        return True

    # -- faces ---------------------------------------------------------------

    def face_count(self) -> int:
        return _compile(self).face_count()

    def faces(self) -> tuple[FaceWalk, ...]:
        """All facial walks, one per face, deterministically ordered.
        Traced once per embedding instance."""
        return self._sorted_faces

    @cached_property
    def _sorted_faces(self) -> tuple[FaceWalk, ...]:
        return tuple(sorted(_compile(self).face_walks(), key=lambda w: w.key))

    def euler_genus(self) -> int:
        """2 - (V - E + F).  Requires a connected graph."""
        if not self.graph.is_connected():
            raise EmbeddingError("euler_genus: graph must be connected "
                                 "(combine components in the caller)")
        f = self.face_count()
        genus = 2 - (self.graph.n - self.graph.m + f)
        if genus < 0:
            raise EmbeddingError("Euler formula produced negative genus")
        return genus

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        obj = {
            "graph": json.loads(graph_to_json(self.graph)),
            "rotation": {str(v): list(r) for v, r in self.rotation},
            "signature": {f"{e[0]}-{e[1]}": s for e, s in self.signature},
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Embedding":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise EmbeddingError(f"embedding json: {exc.msg} at byte {exc.pos}") from None
        graph_field = obj["graph"]
        if isinstance(graph_field, str):
            graph = parse_graph(graph_field)
        else:
            graph = parse_graph(json.dumps(graph_field))
        rotation = {int(v): [int(x) for x in r] for v, r in obj["rotation"].items()}
        signature = {}
        for key, s in obj["signature"].items():
            u, _, v = key.partition("-")
            signature[(int(u), int(v))] = int(s)
        return Embedding.build(graph, rotation, signature)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Embedding(graph={self.graph!r})"


def _is_spanning_forest(graph: Graph, edges: set[Edge]) -> bool:
    for e in edges:
        if e not in graph.edge_set:
            return False
    want = graph.n - len(graph.components())
    if len(edges) != want:
        return False
    sub = graph.edge_subgraph(edges, extra_vertices=graph.vertices)
    return len(sub.components()) == len(graph.components())


def _cyclic_equal(a: tuple, b: tuple) -> bool:
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    return _cyclic_rotations(a) == _cyclic_rotations(b)


def check_cycle(graph: Graph, cycle: Sequence[int]) -> tuple[int, ...]:
    """Validate a vertex sequence as a cycle of the graph; returns it as a
    tuple (without the repeated endpoint)."""
    cyc = tuple(cycle)
    if len(cyc) >= 2 and cyc[0] == cyc[-1]:
        cyc = cyc[:-1]
    if len(cyc) < 3:
        raise EmbeddingError(f"not a cycle (length {len(cyc)} < 3): {cyc}")
    if len(set(cyc)) != len(cyc):
        raise EmbeddingError(f"not a cycle (repeated vertex): {cyc}")
    for i, v in enumerate(cyc):
        w = cyc[(i + 1) % len(cyc)]
        if not graph.has_edge(v, w):
            raise EmbeddingError(f"not a cycle (missing edge {v}-{w})")
    return cyc


# ---------------------------------------------------------------------------
# Compiled face tracer
# ---------------------------------------------------------------------------
#
# Darts are indexed 2i (u->v) and 2i+1 (v->u) for edge i = (u, v); the
# reverse of dart d is d ^ 1.  A traversal state is 2*d + o where o is 0
# while rotations are read forward and 1 after an odd number of negative
# signatures.  The successor permutation follows the traversal rule; its
# orbits pair up under the mirror map (reverse the dart, flip the state
# past the edge's signature), and each pair is one face.


class _Compiled:
    __slots__ = ("emb", "edge_index", "succ", "nstates", "head")

    def __init__(self, emb: Embedding):
        self.emb = emb
        graph = emb.graph
        edges = graph.edges
        m = len(edges)
        self.edge_index = {e: i for i, e in enumerate(edges)}
        # out-dart at each endpoint: dart 2i goes e[0]->e[1]
        out_darts: dict[int, list[int]] = {v: [] for v in graph.vertices}
        neg = [emb.sig[e] < 0 for e in edges]
        head = [0] * (2 * m)
        for i, (u, v) in enumerate(edges):
            head[2 * i] = v
            head[2 * i + 1] = u
        self.head = head
        # rotation as next/prev out-dart per vertex
        rot_next = [0] * (2 * m)
        rot_prev = [0] * (2 * m)
        for v, order in emb.rotation:
            ds = []
            for w in order:
                e = edge_key(v, w)
                i = self.edge_index[e]
                ds.append(2 * i if e[0] == v else 2 * i + 1)
            k = len(ds)
            for j, d in enumerate(ds):
                rot_next[d] = ds[(j + 1) % k]
                rot_prev[d] = ds[(j - 1) % k]
        # successor over states
        succ = [0] * (4 * m)
        for d in range(2 * m):
            e = d >> 1
            r = d ^ 1
            for o in (0, 1):
                o2 = o ^ neg[e]
                d2 = rot_next[r] if o2 == 0 else rot_prev[r]
                succ[2 * d + o] = 2 * d2 + o2
        self.succ = succ
        self.nstates = 4 * m

    def _mirror(self, state: int) -> int:
        d, o = state >> 1, state & 1
        neg = self.emb.sig[self.emb.graph.edges[d >> 1]] < 0
        return 2 * (d ^ 1) + (o ^ 1 ^ neg)

    def orbits(self) -> list[list[int]]:
        succ = self.succ
        seen = bytearray(self.nstates)
        out = []
        for s0 in range(self.nstates):
            if seen[s0]:
                continue
            orbit = []
            s = s0
            while not seen[s]:
                seen[s] = 1
                orbit.append(s)
                s = succ[s]
            out.append(orbit)
        return out

    def face_count(self) -> int:
        orbits = self.orbits()
        if len(orbits) % 2:
            raise EmbeddingError("face orbits failed to pair up")
        return len(orbits) // 2 if orbits else 1  # edgeless graph: one face

    def face_walks(self) -> list[FaceWalk]:
        if self.emb.graph.m == 0:
            return [FaceWalk(())]
        orbits = self.orbits()
        state_orbit: dict[int, int] = {}
        for i, orb in enumerate(orbits):
            for s in orb:
                state_orbit[s] = i
        done = set()
        walks = []
        edges = self.emb.graph.edges
        for i, orb in enumerate(orbits):
            if i in done:
                continue
            j = state_orbit[self._mirror(orb[0])]
            if j == i:
                raise EmbeddingError("self-mirror face orbit; traversal invariant broken")
            done.add(i)
            done.add(j)
            darts = []
            for s in orb:
                d = s >> 1
                u, v = edges[d >> 1]
                darts.append((u, v) if d & 1 == 0 else (v, u))
            walks.append(FaceWalk(tuple(darts)))
        return walks


_compile_cache: dict[tuple, _Compiled] = {}


def _compile(emb: Embedding) -> _Compiled:
    key = (id(emb.graph), emb.rotation, emb.signature)
    hit = _compile_cache.get(key)
    if hit is not None and hit.emb.graph is emb.graph:
        return hit
    if len(_compile_cache) > 4096:
        _compile_cache.clear()
    c = _Compiled(emb)
    _compile_cache[key] = c
    return c


def face_traversal(graph: Graph, emb: Embedding) -> tuple[FaceWalk, ...]:
    """The set of facial walks of a connected embedded graph.

    Every edge is traversed exactly twice across all walks, so the face
    sizes sum to 2|E|.
    """
    if emb.graph != graph:
        raise EmbeddingError("face_traversal: embedding is for a different graph")
    if not graph.is_connected():
        raise EmbeddingError("face_traversal: graph must be connected")
    return emb.faces()


def euler_genus(graph: Graph, emb: Embedding) -> int:
    if emb.graph != graph:
        raise EmbeddingError("euler_genus: embedding is for a different graph")
    return emb.euler_genus()


# ---------------------------------------------------------------------------
# Enumeration and sampling
# ---------------------------------------------------------------------------


def default_embedding(graph: Graph) -> Embedding:
    """Sorted rotations, all-positive signatures."""
    return Embedding.build(graph)


def random_embedding(graph: Graph, rng: random.Random) -> Embedding:
    rotation = {}
    for v in graph.vertices:
        order = list(graph.neighbors(v))
        rng.shuffle(order)
        rotation[v] = order
    signature = {e: rng.choice((-1, 1)) for e in graph.edges}
    return Embedding.build(graph, rotation, signature)


def all_rotations_at(graph: Graph, v: int) -> list[tuple[int, ...]]:
    """All distinct cyclic orders at v: first neighbor pinned, the rest
    permuted ((d-1)! tuples)."""
    ns = graph.neighbors(v)
    if len(ns) <= 2:
        return [ns]
    import itertools as _it
    first, rest = ns[0], ns[1:]
    return [(first,) + p for p in _it.permutations(rest)]


def enumerate_embeddings(graph: Graph, up_to_equivalence: bool = True):
    """Yield embeddings covering every equivalence class: the full product
    of rotations with signatures normalized to +1 on a spanning tree (all
    cotree patterns).  With ``up_to_equivalence=False``, all 2^E signature
    patterns are produced instead."""
    import itertools as _it
    tree = set(graph.spanning_tree())
    cotree = [e for e in graph.edges if e not in tree] if up_to_equivalence \
        else list(graph.edges)
    per_vertex = [all_rotations_at(graph, v) for v in graph.vertices]
    for rots in _it.product(*per_vertex):
        rotation = dict(zip(graph.vertices, rots))
        for pattern in _it.product((1, -1), repeat=len(cotree)):
            signature = {e: 1 for e in graph.edges}
            for e, s in zip(cotree, pattern):
                signature[e] = s
            yield Embedding.build(graph, rotation, signature)
