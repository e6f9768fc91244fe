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
each edge traversed exactly twice overall.  The dart kernel at the end
of this module numbers darts and states and writes the successor rule
once, for face tracing and for the genus search alike.
"""

from __future__ import annotations

import itertools
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

    def __repr__(self) -> str:  # pragma: no cover
        return f"FaceWalk({'-'.join(str(d[0]) for d in self.darts)})"


def _cyclic_rotations(seq: tuple) -> tuple:
    """The least rotation of ``seq``.  It starts with the least element,
    so only rotations starting there are built: O(len) unless that
    element repeats, as a dart may in a nonorientable facial walk."""
    if not seq:
        return seq
    least = min(seq)
    return min(seq[i:] + seq[:i] for i, x in enumerate(seq) if x == least)


@dataclass(frozen=True)
class _FaceSides:
    """What ``topology.classify_cycle`` reads of an embedding's faces.

    Faces are numbered in the order of their least traversal states
    (``Embedding._face_numbers`` gives the number of each face of
    ``faces()``), and a face set is a bit mask over those numbers.  The
    dual graph has a node per face and, per edge, a link between the
    faces on its two sides; ``below`` and ``homology`` refer to a BFS
    spanning forest of it.  An edge set is a cut of the dual graph, so
    zero in Z2 homology, exactly when the XOR of its homology masks is
    0; the XOR of its below masks is then the side of the cut that does
    not hold the root of the dual tree.
    """

    face_of: list[int]          # per traversal state, its face
    homology: list[int]         # per edge, a bit per edge off the forest whose
                                # fundamental dual cycle uses it
    below: list[int]            # per forest edge, the faces below it; 0 off it
    component: list[int]        # per face, the faces of its dual component
    vertices: list[int]         # per face, its vertices, over graph.vertices
    edges: list[int]            # per face, its edges, over graph.edges
    least: int                  # the faces with the key of faces()[0]


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

    # -- local changes and signatures ----------------------------------------

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
        """True iff every cycle is two-sided: some set of local changes
        makes every signature +1."""
        return _switching(self.graph, {e: s < 0 for e, s in self.signature})

    # -- faces ---------------------------------------------------------------

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the successor permutation on traversal states (see
        the dart kernel below), each from its smallest state.  Tuples of
        ints, which the garbage collector stops tracking, since every
        embedding keeps them."""
        graph = self.graph
        sig = self.sig
        neg = [sig[e] < 0 for e in graph.edges]
        nstates = 4 * graph.m
        succ = [0] * nstates
        out_darts = graph._out_darts
        for v, order in self.rotation:
            at = out_darts[v]
            for s, t in successor_pairs([at[w] for w in order], neg):
                succ[s] = t
        seen = bytearray(nstates)
        out = []
        for s0 in range(nstates):
            if seen[s0]:
                continue
            orbit = []
            s = s0
            while not seen[s]:
                seen[s] = 1
                orbit.append(s)
                s = succ[s]
            out.append(tuple(orbit))
        return tuple(out)

    def face_count(self) -> int:
        n = len(self.orbits)
        if n % 2:
            raise EmbeddingError("face orbits failed to pair up")
        return n // 2 if n else 1  # edgeless graph: one face

    def faces(self) -> tuple[FaceWalk, ...]:
        """All facial walks, one per face, deterministically ordered.
        Traced once per embedding instance."""
        return self._sorted_faces

    @cached_property
    def _sorted_faces(self) -> tuple[FaceWalk, ...]:
        if self.graph.m == 0:
            return (FaceWalk(()),)
        walks = self._orbit_walks
        return tuple(walks[k] for k in self._face_numbers)

    @cached_property
    def _face_numbers(self) -> tuple[int, ...]:
        """The number of each face of ``faces()`` in the face-side table:
        its place in the order of the faces' least states."""
        walks = self._orbit_walks
        return tuple(sorted(range(len(walks)), key=lambda k: walks[k].key))

    @cached_property
    def _orbit_walks(self) -> tuple[FaceWalk, ...]:
        """One walk per face, in the order of the faces' least states (the
        face-side table's order), each read from the face's orbit with
        the least state."""
        edges = self.graph.edges
        sig = self.sig
        orbit_of = [0] * (4 * self.graph.m)
        for i, orb in enumerate(self.orbits):
            for s in orb:
                orbit_of[s] = i
        done = set()
        walks = []
        for i, orb in enumerate(self.orbits):
            if i in done:
                continue
            # the orbit of the mirror of its first state 2d + o
            d, o = orb[0] >> 1, orb[0] & 1
            j = orbit_of[2 * (d ^ 1) + (o ^ 1 ^ (sig[edges[d >> 1]] < 0))]
            if j == i:
                raise EmbeddingError("self-mirror face orbit; traversal invariant broken")
            done.add(i)
            done.add(j)
            walks.append(FaceWalk(dart_ends(self.graph, [s >> 1 for s in orb])))
        return tuple(walks)

    @cached_property
    def _face_sides(self) -> "_FaceSides":
        """The face-side table of this embedding, built on first use from
        the orbits: of the facial walks only those of edge 0's faces are
        built.  Faces are numbered in the order of their least states,
        and face sets are bit masks over those numbers."""
        graph = self.graph
        edges = graph.edges
        neg = [s < 0 for _, s in self.signature]
        vindex = {v: k for k, v in enumerate(graph.vertices)}
        tail = [1 << vindex[v] for e in edges for v in e]    # per dart
        face_of = [-1] * (4 * graph.m)
        vertex_masks, edge_masks = [], []
        for orb in self.orbits:
            if face_of[orb[0]] >= 0:
                continue  # the mirror orbit of a face already numbered
            k = len(vertex_masks)
            vmask = emask = 0
            for s in orb:
                d = s >> 1
                # the state and its mirror 2 (d ^ 1) + (o ^ 1 ^ neg) are one face
                face_of[s] = face_of[2 * (d ^ 1) + ((s & 1) ^ 1 ^ neg[d >> 1])] = k
                emask |= 1 << (d >> 1)
                vmask |= tail[d]
            vertex_masks.append(vmask)
            edge_masks.append(emask)
        # faces()[0], the face with the least key, walks the least dart,
        # dart 0, so it is the face of state 0 or of state 1: orbit 0, or
        # orbit 1 when that is another face
        keys = {face_of[orb[0]]: FaceWalk(dart_ends(graph, [s >> 1 for s in orb])).key
                for orb in self.orbits[:1 + (face_of[0] != face_of[1])]}
        least = sum(1 << k for k, key in keys.items() if key == min(keys.values()))
        # the dual graph: edge i joins the faces of states 4i and 4i + 1,
        # the two orbits that walk its dart 2i
        nfaces = len(vertex_masks)
        dual: list[list[tuple[int, int]]] = [[] for _ in range(nfaces)]
        for i in range(graph.m):
            a, b = face_of[4 * i], face_of[4 * i + 1]
            dual[a].append((i, b))
            if a != b:
                dual[b].append((i, a))
        # a BFS spanning forest of the dual graph, one tree per component:
        # each face's root, and the edge and face above it (-1 at a root)
        root = [-1] * nfaces
        up = [-1] * nfaces
        parent = [-1] * nfaces
        order: list[int] = []
        for r in range(nfaces):
            if root[r] >= 0:
                continue
            root[r] = r
            queue = [r]
            for f in queue:
                for i, g in dual[f]:
                    if root[g] < 0:
                        root[g], up[g], parent[g] = r, i, f
                        queue.append(g)
            order += queue
        tree = {up[f] for f in range(nfaces)}
        # one homology bit per edge off the forest; a face's potential is
        # the XOR of the bits at its ends
        homology = [0] * graph.m
        potential = [0] * nfaces
        bit = 1
        for i in range(graph.m):
            if i not in tree:
                homology[i] = bit
                potential[face_of[4 * i]] ^= bit
                potential[face_of[4 * i + 1]] ^= bit
                bit <<= 1
        # a forest edge lies on the fundamental dual cycle of an edge off
        # the forest exactly when one of that edge's faces is below it
        below = [0] * graph.m
        subtree = [1 << f for f in range(nfaces)]
        for f in reversed(order):
            i, p = up[f], parent[f]
            if i >= 0:
                homology[i] = potential[f]
                below[i] = subtree[f]
                potential[p] ^= potential[f]
                subtree[p] |= subtree[f]
        return _FaceSides(face_of, homology, below, [subtree[root[f]] for f in range(nfaces)],
                          vertex_masks, edge_masks, least)

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
        if not isinstance(obj, dict):
            raise EmbeddingError("embedding json: expected an object with 'graph', "
                                 "'rotation' and 'signature'")
        graph_field = obj.get("graph")
        if not isinstance(graph_field, (str, dict)):
            raise EmbeddingError("embedding json: 'graph' must be a graph6 string "
                                 "or a graph object")
        for field in ("rotation", "signature"):
            if not isinstance(obj.get(field), dict):
                raise EmbeddingError(f"embedding json: '{field}' must be an object")
        if isinstance(graph_field, str):
            graph = parse_graph(graph_field)
        else:
            graph = parse_graph(json.dumps(graph_field))
        try:
            rotation = {int(v): [int(x) for x in r] for v, r in obj["rotation"].items()}
        except (TypeError, ValueError):
            raise EmbeddingError("embedding json: 'rotation' must map vertex ids "
                                 "to lists of vertex ids") from None
        signature = {}
        try:
            for key, s in obj["signature"].items():
                u, _, v = key.partition("-")
                signature[(int(u), int(v))] = int(s)
        except (TypeError, ValueError):
            raise EmbeddingError("embedding json: 'signature' must map 'u-v' edge keys "
                                 "to +1 or -1") from None
        return Embedding.build(graph, rotation, signature)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Embedding(graph={self.graph!r})"


def _switching(graph: Graph, negative: Mapping[Edge, bool]) -> bool:
    """Whether some set of local changes makes every edge of the graph
    positive.

    Searches each component from its least vertex, which stays; a vertex
    flips exactly when the edge it is reached by is negative relative to
    the vertex it comes from.  The search stops at the first edge that
    does not end up positive.
    """
    adj = graph._adj
    flips: dict[int, bool] = {}
    for root in graph.vertices:
        if root in flips:
            continue
        flips[root] = False
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                flip = flips[u] ^ negative[(u, w) if u < w else (w, u)]
                if w not in flips:
                    flips[w] = flip
                    stack.append(w)
                elif flips[w] != flip:
                    return False
    return True


def check_cycle(graph: Graph, cycle: Sequence[int]) -> tuple[int, ...]:
    """Validate a vertex sequence as a cycle of the graph; returns it as a
    tuple (without the repeated endpoint)."""
    return cycle_edge_keys(graph, cycle)[0]


def cycle_edge_keys(graph: Graph, cycle: Sequence[int]
                    ) -> tuple[tuple[int, ...], list[Edge]]:
    """``check_cycle`` and the cycle's edge keys from the same walk: the
    i-th key joins the i-th vertex to the next one, the last closes C."""
    cyc = tuple(cycle)
    if len(cyc) >= 2 and cyc[0] == cyc[-1]:
        cyc = cyc[:-1]
    if len(cyc) < 3:
        raise EmbeddingError(f"not a cycle (length {len(cyc)} < 3): {cyc}")
    if len(set(cyc)) != len(cyc):
        raise EmbeddingError(f"not a cycle (repeated vertex): {cyc}")
    ring = list(zip(cyc, cyc[1:] + cyc[:1]))
    keys = [(v, w) if v < w else (w, v) for v, w in ring]
    if not graph.edge_set.issuperset(keys):
        v, w = next(p for p, e in zip(ring, keys) if e not in graph.edge_set)
        raise EmbeddingError(f"not a cycle (missing edge {v}-{w})")
    return cyc, keys


# ---------------------------------------------------------------------------
# Dart kernel
# ---------------------------------------------------------------------------
#
# The one place that numbers darts and states; face tracing here and the
# genus search (``genus_search``) both use these functions.
#
# Edge i = graph.edges[i] = (u, v), u < v, has dart 2i from u to v and
# dart 2i + 1 back: the dart from v to w is 2i + (v > w) for its edge i
# (``dart``, read from the graph's cached dart table, which also holds
# each dart's ends), its reverse is d ^ 1 and its edge is edges[d >> 1].  A
# traversal state is 2d + o: dart d walked with rotations read forward
# (o = 0) or backward (o = 1, after an odd number of negative
# signatures); there are 4m states.  A state entering a vertex along
# dart d continues on the rotation neighbour of d ^ 1 there, in the sense
# flipped by the sign of d's edge (``successor_pairs``).  The orbits of
# the successor permutation pair up under the mirror map (reverse the
# dart, flip the sense past the edge's sign), and each pair is one face.


def dart(graph: Graph, v: int, w: int) -> int:
    """The dart from v to w, read from the graph's dart table."""
    try:
        return graph._out_darts[v][w]
    except KeyError:
        raise GraphError(f"no edge {v}-{w} in the graph") from None


def dart_ends(graph: Graph, darts: Iterable[int]) -> tuple[Dart, ...]:
    """(tail, head) of each dart."""
    ends = graph._dart_ends
    return tuple(ends[d] for d in darts)


def rotations(items: Sequence, fixed: bool = False) -> list[tuple]:
    """All cyclic orders of ``items``: the first pinned, the rest in
    ``itertools.permutations`` order ((d-1)! tuples).  With ``fixed``
    only one of each mirror pair is kept, the one that is not above its
    reversal (start-vertex symmetry reduction)."""
    items = tuple(items)
    if len(items) <= 2:
        return [items]
    first, rest = items[0], items[1:]
    return [(first,) + p for p in itertools.permutations(rest)
            if not fixed or p <= p[::-1]]


def successor_pairs(rot: Sequence[int], neg: Sequence[bool]) -> list[tuple[int, int]]:
    """The (state, successor) pairs that the rotation ``rot`` at one
    vertex, given as its out-darts in cyclic order, fixes under the edge
    signs ``neg`` (True = negative)."""
    k = len(rot)
    pairs = []
    for j, r in enumerate(rot):
        s = 2 * (r ^ 1)
        nxt, prv = 2 * rot[(j + 1) % k], 2 * rot[j - 1] + 1
        if neg[r >> 1]:
            pairs += ((s, prv), (s + 1, nxt))
        else:
            pairs += ((s, nxt), (s + 1, prv))
    return pairs


# ---------------------------------------------------------------------------
# Default and random embeddings
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

