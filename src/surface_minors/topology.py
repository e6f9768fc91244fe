"""Classification and surgery of cycles in an embedded graph.

Sides of a cycle, separating / contractible status, Int/Ext, cutting
along cycles, and homotopy of cycle pairs.

Classification counts on the embedding as given.  One walk along the
cycle C validates it, finds its edge keys, and reads the left/right
side of every edge end at C from the rotations, stepping backward at
the vertices whose local changes would make C's signature positive
(found as a vertex set only).  From each end that leaves C a stack
search labels that end's component of G - V(C) with the end's side; C
separates unless a component is reached from both sides or a chord
joins the two.  Each side's Euler genus then follows from Euler's
formula for the piece that cutting along C and capping it with a disk
would give: the side's vertices and edges, plus the faces of the
embedding lying on that side, plus the cap.  The normalized embedding
and the cut graph are built only when a caller asks for them
(``normalized``, ``cut``).

Homotopy takes one cut.  The second cycle C2 is lifted into the cut
along the first, C1, and classified there.  Each side of the lifted C2
is then a piece of the surface cut along both cycles, with the genus,
vertices and edges the classification counts.  The two cycles are
homotopic when a genus-0 side holds exactly one of the two copies of C1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Sequence

from .graph import Edge, Graph, edge_key
from .embedding import Embedding, FaceWalk, check_cycle, cycle_edge_keys


class TopologyError(ValueError):
    """Cycle surgery applied outside its preconditions."""


@dataclass(frozen=True)
class CycleClassification:
    """Status of a cycle in an embedding.

    ``contractible`` implies ``separating`` implies two-sided; the disk
    side names which side bounds a disk (Int) when contractible.
    """

    sidedness: str              # "one-sided" | "two-sided"
    separating: bool
    contractible: bool
    disk_side: str              # "left" | "right" | "none"


@dataclass(frozen=True)
class CutPiece:
    graph: Graph
    embedding: Embedding
    # vertex of the piece -> vertex of the original graph
    origin: dict[int, int]

    def __hash__(self):  # pragma: no cover - pieces are not dict keys
        return id(self)


@dataclass(frozen=True)
class CutResult:
    """Result of cutting along a cycle.

    For a two-sided cycle the cut graph carries two copies of it; for a
    one-sided cycle a single doubled cycle of twice the length.
    ``copies`` lists the copies as vertex tuples of the cut graph, and
    ``origin`` maps cut-graph vertices back to the original graph.
    """

    graph: Graph
    embedding: Embedding
    origin: dict[int, int]
    copies: tuple[tuple[int, ...], ...]
    left_ids: dict[int, int]    # original C-vertex -> left/first copy id
    right_ids: dict[int, int]   # original C-vertex -> right/second copy id

    def __hash__(self):  # pragma: no cover
        return id(self)

    def pieces(self) -> list[CutPiece]:
        out = []
        for comp in self.graph.components():
            sub = self.graph.subgraph(comp)
            emb = induced_embedding(self.embedding, sub)
            out.append(CutPiece(sub, emb, {v: self.origin[v] for v in comp}))
        return out


def induced_embedding(emb: Embedding, sub: Graph) -> Embedding:
    """Restrict rotations and signatures to a subgraph."""
    rotation = {}
    for v in sub.vertices:
        keep = set(sub.neighbors(v))
        rotation[v] = [w for w in emb.rot[v] if w in keep]
    signature = {e: emb.sig[e] for e in sub.edges}
    return Embedding.build(sub, rotation, signature)


def _cycle_edges(cycle: Sequence[int]) -> list[Edge]:
    return [edge_key(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]


def _normalizing_flips(emb: Embedding, cycle: tuple[int, ...],
                       leave_negative_last: bool = False,
                       keys: Sequence[Edge] | None = None) -> frozenset[int]:
    """The vertices of C whose local changes make every signature on C
    positive (two-sided C), or every one positive except the closing
    edge (one-sided C with ``leave_negative_last``).  ``keys`` are C's
    edge keys as ``cycle_edge_keys`` gives them, found here if omitted.
    A walk along C from its first vertex, not ``embedding._switching``:
    that root stays, and it fixes which side of C ``_cut`` calls left."""
    if keys is None:
        keys = _cycle_edges(cycle)
    sig = emb.sig
    flips = set()
    flipped = False
    for i in range(1, len(cycle)):
        flipped ^= sig[keys[i - 1]] < 0
        if flipped:
            flips.add(cycle[i])
    closing_negative = sig[keys[-1]] < 0
    if flipped ^ closing_negative != leave_negative_last:
        raise TopologyError("cycle signature parity does not admit this normal form")
    return frozenset(flips)


def _end_node(cset: set[int], end_side: dict[tuple[int, int], str],
              u: int, v: int):
    """The node of edge uv's end at u: u itself off the cycle, else the
    side the end leaves the cycle on.  Both ends of an edge off C lie on
    the same side, so either end's root is the edge's side."""
    return end_side[(u, v)] if u in cset else u


@dataclass(frozen=True)
class CycleAnalysis:
    """classify_cycle's full output: the classification plus the data the
    other operations need (per-end sides, side labels, and on request
    the normalized embedding and the cut)."""

    graph: Graph
    embedding: Embedding            # original
    cycle: tuple[int, ...]
    classification: CycleClassification
    # (vertex-on-C, neighbor) -> "left"/"right" for every non-C edge end,
    # as read in the normalized embedding
    end_side: dict[tuple[int, int], str]
    flips: frozenset[int]           # local changes on V(C) that normalize C
    edges: frozenset[Edge]          # C's edges
    # side label of every off-cycle vertex and of the "left" and "right"
    # end nodes, equal exactly for the same side; None for one-sided cycles
    roots: dict | None = None
    left_genus: int | None = None
    right_genus: int | None = None

    def __hash__(self):  # pragma: no cover
        return id(self)

    @cached_property
    def normalized(self) -> Embedding:
        """The equivalent embedding positive on C (one-sided C: on all of
        C but its closing edge)."""
        return self.embedding.local_change_set(self.flips) if self.flips else self.embedding

    @cached_property
    def cut(self) -> CutResult:
        """The cut along C, built on first use."""
        return _cut(self.normalized, self.cycle, self.end_side)

    @property
    def is_contractible(self) -> bool:
        return self.classification.contractible

    @cached_property
    def int_vertices(self) -> frozenset[int]:
        """C and the vertices on its disk side."""
        return self.side_vertices(self.int_side())

    @cached_property
    def int_edges(self) -> frozenset[Edge]:
        """C's edges and the edges on its disk side."""
        return self.side_edges(self.int_side())

    def int_side(self) -> str:
        if not self.classification.contractible:
            raise TopologyError("Int/Ext: cycle is not contractible")
        return self.classification.disk_side

    def _side_root(self, side: str):
        if self.roots is None:
            raise TopologyError("sides: cycle is one-sided")
        return self.roots[side]

    def side_vertices(self, side: str) -> frozenset[int]:
        """C and the vertices reached from the given side of C (all of
        C's component when C does not separate)."""
        root = self._side_root(side)
        cset = set(self.cycle)
        return frozenset(self.cycle) | {v for v in self.graph.vertices
                                        if v not in cset and self.roots[v] == root}

    def side_edges(self, side: str) -> frozenset[Edge]:
        """C's edges and the edges reached from the given side of C."""
        root = self._side_root(side)
        cset, cyc_edges = set(self.cycle), self.edges
        return frozenset(e for e in self.graph.edges if e in cyc_edges
                         or self.roots[_end_node(cset, self.end_side, *e)] == root)

    def interior_vertices(self) -> frozenset[int]:
        """Vertices strictly inside C (in int, not on C)."""
        return self.int_vertices - set(self.cycle)

    def faces_inside(self) -> tuple[FaceWalk, ...]:
        """The faces of (G, Pi) lying strictly inside C: those whose first
        edge off C is on the Int side.  A face made only of C's edges is
        not inside, so a cycle bounding a disk has no inside faces."""
        root = self.roots[self.int_side()]
        cset = set(self.cycle)
        return tuple(f for f in self.embedding.faces()
                     if _face_root(f, cset, self.edges, self.end_side, self.roots) == root)


def _face_root(face: FaceWalk, cset: set[int], cyc_edges: set[Edge],
               end_side: dict[tuple[int, int], str], roots: dict):
    """The root of the face's first edge off C; None for a face made
    only of C's edges, which lies on a side with no ends."""
    for a, b in face.darts:
        if (a, b) not in cyc_edges and (b, a) not in cyc_edges:
            return roots[_end_node(cset, end_side, a, b)]
    return None


def classify_cycle(graph: Graph, emb: Embedding, cycle: Sequence[int],
                   outer_face: FaceWalk | None = None) -> CycleAnalysis:
    """Classify a cycle: sidedness, separating, contractible, disk side.

    C is one-sided when its signature product is negative.  Otherwise
    the local changes that make C positive are found as a vertex set.
    One walk along C reads the side of every edge end at C from the
    rotations, stepping backward at the flipped vertices, and from each
    end that leaves C a stack search labels that end's component of
    G - V(C) with the end's side.  C separates unless a component is
    reached from both sides or a chord has one end on each.  A side s
    with ends has Euler genus

        2 - (l + V_s) + (l + E_s) - (1 + F_s),

    the Euler characteristic of the capped cut piece: l copies of C's
    vertices and edges, the V_s vertices and E_s edges off C on that
    side, and the F_s faces of the embedding whose first dart off C lies
    on that side, plus the cap.  V_s counts the side's vertices, and
    E_s is half the side's degree sum plus its ends at C, plus its
    chords.  A side with no ends is a disk.  C is contractible when it
    separates and one side has genus 0.  For a contractible cycle in a
    genus-0 embedding both sides bound disks; the side containing the
    designated outer face (default: the lexicographically smallest
    facial walk) is taken as Ext.

    No embedding is built: the analysis' ``normalized`` embedding and
    ``cut`` are made on first use.
    """
    if emb.graph != graph:
        raise TopologyError("classify_cycle: embedding is for a different graph")
    cyc, keys = cycle_edge_keys(graph, cycle)
    edges = frozenset(keys)
    sig = emb.sig
    one_sided = len([e for e in keys if sig[e] < 0]) % 2 == 1
    flips = _normalizing_flips(emb, cyc, one_sided, keys)
    cset = set(cyc)
    adj = graph._adj
    rot = emb.rot
    end_side: dict[tuple[int, int], str] = {}
    # off-C vertex -> side of its component of G - V(C)
    roots: dict = {}
    # [vertices, degree sum plus ends at C, chords] on each side
    count = {"left": [0, 0, 0], "right": [0, 0, 0]}
    separating = not one_sided
    for prev_v, v, next_v in zip(cyc[-1:] + cyc[:-1], cyc, cyc[1:] + cyc[:1]):
        # the ends strictly after the incoming cycle edge and before the
        # outgoing one, in rotation order read backward at flipped
        # vertices, are on the left; the rest are on the right
        order = rot[v]
        k = len(order)
        j = order.index(prev_v)
        side = "left"
        for t in range(j - 1, j - k, -1) if v in flips else range(j + 1 - k, j):
            w = order[t]
            if w == next_v:
                side = "right"
                continue
            end_side[(v, w)] = side
            if one_sided:
                continue
            if w in cset:
                other = end_side.get((w, v))
                if other is not None:
                    if other == side:
                        count[side][2] += 1
                    else:
                        separating = False
                continue
            got = roots.get(w)
            if got is None:
                side_count = count[side]
                roots[w] = side
                stack = [w]
                while stack:
                    u = stack.pop()
                    side_count[0] += 1
                    side_count[1] += len(adj[u])
                    for x in adj[u]:
                        if x not in cset and x not in roots:
                            roots[x] = side
                            stack.append(x)
            elif got != side:
                separating = False
            count[side][1] += 1
    if one_sided:
        cls = CycleClassification("one-sided", False, False, "none")
        return CycleAnalysis(graph, emb, cyc, cls, end_side, flips, edges)

    if not separating:
        roots = dict.fromkeys(roots, "left")
    if len(roots) + len(cyc) < graph.n:
        # components of G - V(C) that C does not touch, labelled by a vertex
        for v in graph.vertices:
            if v not in cset and v not in roots:
                roots[v] = v
                stack = [v]
                while stack:
                    for x in adj[stack.pop()]:
                        if x not in roots:
                            roots[x] = v
                            stack.append(x)
    roots["left"] = "left"
    roots["right"] = "right" if separating else "left"

    left_genus = right_genus = None
    contractible = False
    disk_side = "none"
    if separating:
        faces = emb.faces()
        nfaces = {"left": 0, "right": 0}
        for f in faces:
            r = _face_root(f, cset, edges, end_side, roots)
            if r in nfaces:
                nfaces[r] += 1
        n_edges = {s: c[1] // 2 + c[2] for s, c in count.items()}
        left_genus, right_genus = (0 if n_edges[s] == 0
                                   else 1 - count[s][0] + n_edges[s] - nfaces[s]
                                   for s in ("left", "right"))
        contractible = left_genus == 0 or right_genus == 0
        if contractible:
            if left_genus == 0 and right_genus == 0:
                # sphere: Ext is the side holding the outer face
                key = outer_face.key if outer_face is not None else faces[0].key
                outer = next((f for f in faces if f.key == key), None)
                r = None if outer is None else _face_root(outer, cset, edges,
                                                          end_side, roots)
                if outer is not None and r is None:
                    # made of C's edges: on a side with no ends
                    r = "left" if n_edges["left"] == 0 else "right"
                # Int defaults left when the outer face is on neither side
                disk_side = "right" if r == "left" else "left"
            else:
                disk_side = "left" if left_genus == 0 else "right"
    cls = CycleClassification("two-sided", separating, contractible, disk_side)
    return CycleAnalysis(graph, emb, cyc, cls, end_side, flips, edges, roots,
                         left_genus, right_genus)


def _cut(norm: Embedding, cycle: tuple[int, ...],
         end_side: dict[tuple[int, int], str]) -> CutResult:
    """Cut along a cycle of an embedding normalized on it: positive on C,
    except a negative closing edge when C is one-sided.

    Each vertex of C gets a second copy, and the edge ends on the right
    of C move to that copy.  Each copy of an edge of C keeps its
    signature; a negative closing edge crosses from one copy to the
    other, so a one-sided C becomes one doubled cycle of twice the
    length."""
    graph = norm.graph
    l = len(cycle)
    base = max(graph.vertices) + 1
    left = {v: v for v in cycle}
    right = {v: base + i for i, v in enumerate(cycle)}
    cset = set(cycle)
    cyc_edges = set(_cycle_edges(cycle))

    def at(v: int, w: int) -> int:
        # the cut-graph id that edge vw's end at v attaches to
        if v not in cset:
            return v
        return left[v] if end_side[(v, w)] == "left" else right[v]

    def along(ids: dict[int, int], v: int, w: int) -> int:
        # the copy of w that the copy ids[v] reaches along C's edge vw
        if norm.sig[edge_key(v, w)] < 0:
            ids = right if ids is left else left
        return ids[w]

    rotation = {v: [at(w, v) for w in norm.rot[v]]
                for v in graph.vertices if v not in cset}
    signature = {edge_key(at(u, v), at(v, u)): s
                 for (u, v), s in norm.signature if (u, v) not in cyc_edges}
    for i, v in enumerate(cycle):
        prev_v, next_v = cycle[i - 1], cycle[(i + 1) % l]
        order = norm.rot[v]
        start = order.index(prev_v)
        ends = [w for w in order[start + 1:] + order[:start] if w != next_v]
        rotation[left[v]] = ([along(left, v, prev_v)]
                             + [at(w, v) for w in ends if end_side[(v, w)] == "left"]
                             + [along(left, v, next_v)])
        rotation[right[v]] = ([along(right, v, prev_v), along(right, v, next_v)]
                              + [at(w, v) for w in ends if end_side[(v, w)] == "right"])
        for ids in (left, right):
            signature[edge_key(ids[v], along(ids, v, next_v))] = norm.sig[edge_key(v, next_v)]

    cut_graph = Graph.build(list(graph.vertices) + list(right.values()), signature)
    origin = {v: v for v in graph.vertices}
    origin.update({right[v]: v for v in cycle})
    copies = (tuple(left.values()), tuple(right.values()))
    if norm.sig[edge_key(cycle[-1], cycle[0])] < 0:
        copies = (copies[0] + copies[1],)
    return CutResult(cut_graph, Embedding.build(cut_graph, rotation, signature),
                     origin, copies, left, right)


def cut_along(graph: Graph, emb: Embedding, cycle: Sequence[int]) -> CutResult:
    """Cut the embedded graph along a cycle.

    Two-sided: the cycle is doubled, left-side ends on one copy, right on
    the other.  One-sided: the cycle is replaced by a single doubled
    cycle of twice the length.  Cutting a separating cycle splits the
    genus additively; a noncontractible nonseparating cut strictly drops
    the total genus.
    """
    return classify_cycle(graph, emb, cycle).cut


def total_genus(cut: CutResult) -> int:
    return sum(piece.embedding.euler_genus() for piece in cut.pieces())


# ---------------------------------------------------------------------------
# Homotopy
# ---------------------------------------------------------------------------


def are_homotopic(graph: Graph, emb: Embedding,
                  c1: Sequence[int], c2: Sequence[int]):
    """Whether two two-sided cycles are homotopic: they bound a cylinder,
    a genus-0 piece of the surface cut along both that holds exactly one
    copy of each.  Returns that piece as a subgraph of the original graph
    (Int(C1 u C2)), or None.

    The cycles must be disjoint or share a single path (possibly one
    vertex).  Only C1 is cut: C2 is lifted to the cut on the side on
    which it touches C1, so a transversal crossing is rejected, and
    classified there.  Each side of the lifted C2 is a piece of the cut
    along both cycles, with the side's genus, vertices and edges, and it
    holds a copy of C1 when that copy's edges all lie on the side.  The
    cylinder is the genus-0 side holding one copy, with the fewest faces;
    ties go to the piece with the smallest vertex.
    """
    cyc1 = check_cycle(graph, c1)
    cyc2 = check_cycle(graph, c2)
    if emb._signature_of(cyc1) < 0 or emb._signature_of(cyc2) < 0:
        raise TopologyError("are_homotopic: both cycles must be two-sided")
    if set(cyc1) == set(cyc2) and set(_cycle_edges(cyc1)) == set(_cycle_edges(cyc2)):
        raise TopologyError("are_homotopic: the cycles coincide")
    # the cycles differ, so no shared run is all of C1: each is a path
    shared = _intersection_components(cyc1, set(cyc2), set(_cycle_edges(cyc2)))
    if len(shared) > 1:
        raise TopologyError(
            f"are_homotopic: cycles share {len(shared)} separate pieces "
            f"({sorted(sorted(c) for c, _ in shared)}); allowed is one path")

    analysis1 = classify_cycle(graph, emb, cyc1)
    cut1 = analysis1.cut
    lifted = _lift_cycle(cut1, analysis1, cyc2)
    if lifted is None:
        raise TopologyError("are_homotopic: cycles cross transversally")
    analysis2 = classify_cycle(cut1.graph, cut1.embedding, lifted)
    if not analysis2.classification.separating:
        return None  # one piece holds both copies of C2
    cylinders = []
    for side, genus in (("left", analysis2.left_genus), ("right", analysis2.right_genus)):
        vertices, edges = analysis2.side_vertices(side), analysis2.side_edges(side)
        if genus == 0 and sum(set(_cycle_edges(copy)) <= edges for copy in cut1.copies) == 1:
            # a genus-0 piece has 2 - V + E faces
            cylinders.append((2 - len(vertices) + len(edges), min(vertices), vertices, edges))
    if not cylinders:
        return None
    # the fewest faces win.  Ties go to the piece of the cut along both
    # cycles with the smallest vertex; the right copy of C2 gets ids
    # above all others there, so the sides' least vertices decide alike
    # when min keeps the left side on equality
    _, _, vertices, edges = min(cylinders, key=lambda c: c[:2])
    origin = cut1.origin
    return graph.edge_subgraph({edge_key(origin[u], origin[v]) for u, v in edges},
                               extra_vertices={origin[v] for v in vertices})


def _lift_cycle(cut: CutResult, analysis: CycleAnalysis,
                cyc2: tuple[int, ...]) -> tuple[int, ...] | None:
    """Express the second cycle in the cut graph of the first.

    Vertices of C2 off the first cycle map to themselves, and those on
    it to their copy on the side that C2's edges off C1 leave it on.
    When those edges leave on both sides the cycles cross, and None is
    returned.
    """
    cset = set(analysis.cycle)
    l = len(cyc2)
    sides = {analysis.end_side[(v, w)] for i, v in enumerate(cyc2) if v in cset
             for w in (cyc2[i - 1], cyc2[(i + 1) % l]) if edge_key(v, w) not in analysis.edges}
    if len(sides) > 1:
        return None
    ids = cut.right_ids if sides == {"right"} else cut.left_ids
    return tuple(ids.get(v, v) for v in cyc2)


def _intersection_components(cyc: tuple[int, ...], vertices: AbstractSet[int],
                             edges: AbstractSet[Edge]
                             ) -> list[tuple[tuple[int, ...], set[Edge]]]:
    """Components of the intersection of a cycle with the subgraph
    (vertices, edges), such as a second cycle or a face, each as (its
    vertices in their order along C, its edge set), by least vertex.
    They are the runs of consecutive shared vertices of C joined by
    shared edges, found in one walk along C from a vertex whose incoming
    edge is not shared.  So each run is a path, unless it is all of C
    (as many edges as vertices)."""
    l = len(cyc)
    keys = _cycle_edges(cyc)
    shared = [e in edges for e in keys]
    if all(shared):
        return [(cyc, set(keys))]
    start = shared.index(False) + 1
    runs: list[tuple[list[int], set[Edge]]] = []
    for j in range(start, start + l):
        i = j % l
        if shared[i - 1]:
            runs[-1][0].append(cyc[i])
            runs[-1][1].add(keys[i - 1])
        elif cyc[i] in vertices:
            runs.append(([cyc[i]], set()))
    return sorted(((tuple(vs), es) for vs, es in runs), key=lambda run: min(run[0]))
