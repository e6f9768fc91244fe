"""Classification and surgery of cycles in an embedded graph.

Sides of a cycle, separating / contractible status, Int/Ext, cutting
along cycles, and homotopy of cycle pairs.

Classification reads a face-side table that each ``Embedding`` builds
once (``Embedding._face_sides``): each traversal state's face, a BFS
spanning forest of the dual graph, per edge a homology mask (a bit per
dual edge off the forest whose fundamental dual cycle uses the edge)
and, on the forest, the faces below it, per face its vertices and
edges, all as bit masks, and per dual component its Euler genus.  Each
edge's sign and two masks are packed into one word, looked up by either
end pair, so a cycle's edges are checked and summed with one XOR each.
A two-sided cycle C separates exactly when it is zero in Z2 homology,
that is when its edges form a cut of the dual graph, which holds
exactly when the XOR of their homology masks is 0 (Eppstein, "Dynamic
generators of topologically embedded graphs", SODA 2003;
Mohar-Thomassen, *Graphs on Surfaces*, ch. 4).  The XOR of their below
masks is then one side's faces, and Euler's formula on the faces,
vertices and edges of the side with fewer faces gives its genus; the
other side's genus is the component's less that one, since genus adds
up over the two sides.  So a cycle is classified with |C| XORs and
popcounts, and no search of the graph.  The end sides, read from the
rotations in one walk along C, the normalized embedding and the cut
graph are built only when a caller asks for them (``end_side``,
``normalized``, ``cut``).

Homotopy takes one cut.  The second cycle C2 is lifted into the cut
along the first, C1, and classified there.  Each side of the lifted C2
is then a piece of the surface cut along both cycles, with the genus,
vertices and edges the classification counts.  The two cycles are
homotopic when a genus-0 side holds exactly one of the two copies of C1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterator, Sequence

from .graph import Edge, Graph, edge_key
from .embedding import Embedding, FaceWalk, _FaceSides, check_cycle, dart


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
        for comp in self.graph.components:
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
                       leave_negative_last: bool = False) -> frozenset[int]:
    """The vertices of C whose local changes make every signature on C
    positive (two-sided C), or every one positive except the closing
    edge (one-sided C with ``leave_negative_last``).  A walk along C
    from its first vertex, not ``embedding._switching``: that root
    stays, and it fixes which side of C ``_cut`` calls left."""
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


@dataclass(frozen=True)
class CycleAnalysis:
    """classify_cycle's full output: the classification plus the data the
    other operations need (side face sets, and on request the per-end
    sides, the normalized embedding and the cut)."""

    graph: Graph
    embedding: Embedding            # original
    cycle: tuple[int, ...]
    classification: CycleClassification
    left_genus: int | None = None
    right_genus: int | None = None
    # the faces on each side of a two-sided C, as bit masks over the
    # face numbers of the embedding's face-side table; both are all of
    # C's component when C does not separate, and None when C is one-sided
    left_faces: int | None = None
    right_faces: int | None = None

    def __hash__(self):  # pragma: no cover
        return id(self)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """C's edges."""
        return frozenset(_cycle_edges(self.cycle))

    @cached_property
    def flips(self) -> frozenset[int]:
        """The local changes on V(C) that normalize C."""
        return _normalizing_flips(self.embedding, self.cycle,
                                  self.classification.sidedness == "one-sided")

    @cached_property
    def end_side(self) -> dict[tuple[int, int], str]:
        """(vertex on C, neighbour) -> "left" or "right" for every edge end
        at C off C, as read in the normalized embedding: the ends strictly
        after the incoming cycle edge and before the outgoing one, in
        rotation order read backward at flipped vertices, are on the
        left, the rest on the right."""
        flips = self.flips
        rot = self.embedding.rot
        cyc = self.cycle
        end_side = {}
        for prev_v, v, next_v in zip(cyc[-1:] + cyc[:-1], cyc, cyc[1:] + cyc[:1]):
            order = rot[v]
            k = len(order)
            j = order.index(prev_v)
            side = "left"
            for t in range(j - 1, j - k, -1) if v in flips else range(j + 1 - k, j):
                w = order[t]
                if w == next_v:
                    side = "right"
                else:
                    end_side[(v, w)] = side
        return end_side

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
    def edge_mask(self) -> int:
        """C's edges as a bit mask over ``graph.edges``."""
        index = self.graph._edge_index
        return sum(1 << index[e] for e in self.edges)

    @cached_property
    def int_edge_mask(self) -> int:
        """C's edges and the edges on its disk side, as a bit mask over
        ``graph.edges``."""
        return _union(self.embedding._face_sides.edges, self._side_faces(self.int_side()))

    def int_side(self) -> str:
        if not self.classification.contractible:
            raise TopologyError("Int/Ext: cycle is not contractible")
        return self.classification.disk_side

    def _side_faces(self, side: str) -> int:
        if self.left_faces is None:
            raise TopologyError("sides: cycle is one-sided")
        return self.left_faces if side == "left" else self.right_faces

    def side_vertices(self, side: str) -> frozenset[int]:
        """C and the vertices on the given side of C (all of C's
        component when C does not separate)."""
        masks = self.embedding._face_sides.vertices
        vertices = self.graph.vertices
        return frozenset(vertices[i] for i in _bits(_union(masks, self._side_faces(side))))

    def side_edges(self, side: str) -> frozenset[Edge]:
        """C's edges and the edges on the given side of C."""
        masks = self.embedding._face_sides.edges
        edges = self.graph.edges
        return frozenset(edges[i] for i in _bits(_union(masks, self._side_faces(side))))

    def faces_inside(self) -> tuple[FaceWalk, ...]:
        """The faces of (G, Pi) lying strictly inside C: the faces on the
        Int side less those made only of C's edges, so a cycle bounding
        a disk has no inside faces."""
        inside = self._side_faces(self.int_side())
        masks = self.embedding._face_sides.edges
        off_cycle = ~self.edge_mask
        return tuple(f for f, k in zip(self.embedding.faces(), self.embedding._face_numbers)
                     if inside >> k & 1 and masks[k] & off_cycle)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(masks: Sequence[int], faces: int) -> int:
    """The union of the masks of the given faces."""
    out = 0
    for k in _bits(faces):
        out |= masks[k]
    return out


def _genus(table: _FaceSides, faces: int) -> int:
    """1 - V + E - F for the vertices, edges and faces of a side."""
    vertices = edges = 0
    for k in _bits(faces):
        vertices |= table.vertices[k]
        edges |= table.edges[k]
    return 1 - vertices.bit_count() + edges.bit_count() - faces.bit_count()


def classify_cycle(graph: Graph, emb: Embedding, cycle: Sequence[int],
                   outer_face: FaceWalk | None = None) -> CycleAnalysis:
    """Classify a cycle: sidedness, separating, contractible, disk side.

    One pass over C's consecutive vertex pairs XORs the packed word of
    each edge (``_FaceSides``: ``negative | homology << 1 | below <<
    shift``), read from the embedding's face-side table
    (``Embedding._face_sides``); a cycle too short, with a repeated
    vertex or with a pair that is not an edge raises ``check_cycle``'s
    named error.  C is one-sided when the XOR's sign bit, the parity of
    its negative edges, is set.  A two-sided C separates exactly when it
    is zero in Z2 homology, that is when its edges form a cut of the
    dual graph: exactly when the XOR's homology bits are 0.  Its below
    bits are then one side of the cut within C's dual component, and
    the component's other faces are the other side.  The left side is
    the one holding the face that walks C's closing edge into its first
    vertex and turns away from the closing edge in the rotation read
    forward (the state ``2 * dart + (sig < 0)``).  A side with face set
    F_s, bounded by |F_s| faces, |V_s| vertices and |E_s| edges, C's
    included, has Euler genus

        1 - |V_s| + |E_s| - |F_s|,

    the Euler characteristic of the piece that cutting along C and
    capping it with a disk gives: C's l vertices and edges cancel, and
    the cap is the 1.  A side made only of one face bounded by C is a
    disk (1 - l + l - 1 = 0).  This is counted for the side with fewer
    faces only: the two sides' genera add up to the component's Euler
    genus 2 - V + E - F, since C's vertices and edges count on both
    sides, so the other side's genus is the difference.  C is
    contractible when it separates and one side has genus 0.  For a
    contractible cycle in a genus-0 embedding both sides bound disks;
    the side containing the designated outer face (default: the
    lexicographically smallest facial walk) is taken as Ext.

    No search runs and no embedding is built: the table is built once
    per embedding, and the analysis' edge set, end sides,
    ``normalized`` embedding and ``cut`` are made on first use.
    """
    if emb.graph is not graph and emb.graph != graph:
        raise TopologyError("classify_cycle: embedding is for a different graph")
    given = tuple(cycle)
    cyc = given[:-1] if len(given) >= 2 and given[0] == given[-1] else given
    if len(cyc) < 3 or len(set(cyc)) < len(cyc):
        check_cycle(graph, given)  # raises the named error
    table = emb._face_sides
    word = table.word
    x = 0
    for pair in zip(cyc, cyc[1:] + cyc[:1]):
        w = word.get(pair)
        if w is None:
            check_cycle(graph, given)  # raises the missing-edge error
        x ^= w
    if x & 1:
        cls = CycleClassification("one-sided", False, False, "none")
        return CycleAnalysis(graph, emb, cyc, cls)
    closing_negative = word[cyc[-1], cyc[0]] & 1
    left_face = table.face_of[2 * dart(graph, cyc[-1], cyc[0]) + closing_negative]
    component, genus = table.component[left_face]
    if x & table.homology_bits:
        cls = CycleClassification("two-sided", False, False, "none")
        return CycleAnalysis(graph, emb, cyc, cls, left_faces=component, right_faces=component)
    below = x >> table.shift
    left = below if below >> left_face & 1 else component ^ below
    right = component ^ left
    if left.bit_count() <= right.bit_count():
        left_genus = _genus(table, left)
        right_genus = genus - left_genus
    else:
        right_genus = _genus(table, right)
        left_genus = genus - right_genus
    disk_side = "none"
    if left_genus == 0 and right_genus == 0:
        # sphere: Ext is the side holding the outer face
        # Int defaults left when the outer face is on neither side; a
        # cycle alone in its component bounds two faces with one key
        outer = table.least if outer_face is None else \
            sum(1 << k for f, k in zip(emb.faces(), emb._face_numbers) if f.key == outer_face.key)
        disk_side = "right" if outer & left else "left"
    elif left_genus == 0 or right_genus == 0:
        disk_side = "left" if left_genus == 0 else "right"
    cls = CycleClassification("two-sided", True, disk_side != "none", disk_side)
    return CycleAnalysis(graph, emb, cyc, cls, left_genus, right_genus, left, right)


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
