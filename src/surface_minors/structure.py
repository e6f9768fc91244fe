"""Forbidden-structure detectors for embedded graphs.

Simple-cycle enumeration, nesting of contractible cycles, the longest
chain of well-nested contractible cycles, and the face-layer radius of
a contractible region.

A chain keeps one discipline: its nested pairs are all free, or all
pinched on the same pieces.  So the longest chain is the longest of
the longest paths in the nesting DAG, one per discipline, each found
by a memoized longest-path DP.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from .graph import Edge, Graph
from .embedding import Embedding, FaceWalk
from .topology import (CycleAnalysis, classify_cycle, _cycle_edges,
                       _intersection_components)


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Cycle enumeration (deterministic: shortest first, lexicographic)
# ---------------------------------------------------------------------------


def enumerate_cycles(graph: Graph, budget: int = 100_000) -> tuple[list[tuple[int, ...]], bool]:
    """Simple cycles as canonical vertex tuples; (cycles, exact).  The
    exact flag drops when the budget truncates the enumeration."""
    import networkx as nx
    found = []
    for cyc in nx.simple_cycles(graph.to_nx()):
        if len(cyc) >= 3:
            found.append(_canonical_cycle(tuple(cyc)))
        if len(found) > budget:
            found.sort(key=lambda c: (len(c), c))
            return found[:budget], False
    found.sort(key=lambda c: (len(c), c))
    return found, True


def _canonical_cycle(cyc: tuple[int, ...]) -> tuple[int, ...]:
    i = cyc.index(min(cyc))
    seq = cyc[i:] + cyc[:i]
    if seq[1] > seq[-1]:
        seq = (seq[0],) + tuple(reversed(seq[1:]))
    return seq


# ---------------------------------------------------------------------------
# Nested and well-nested classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WellNestedKind:
    """Free, pinched on one piece, or pinched on two pieces; a piece is a
    vertex id or a face walk."""

    tag: str                      # "free" | "pinched-one" | "pinched-two"
    pieces: tuple = ()

    @staticmethod
    def free() -> "WellNestedKind":
        return WellNestedKind("free")

    @staticmethod
    def on(*pieces) -> "WellNestedKind":
        if not 1 <= len(pieces) <= 2:
            raise StructureError(f"WellNestedKind.on: {len(pieces)} pieces; one or two allowed")
        tag = "pinched-one" if len(pieces) == 1 else "pinched-two"
        return WellNestedKind(tag, tuple(pieces))

    @property
    def key(self) -> tuple:
        """The discipline: the tag and each piece as a vertex id or a
        face key.  Pairs of one chain share it."""
        return (self.tag,) + tuple(p if isinstance(p, int) else p.key for p in self.pieces)

    def piece_names(self) -> tuple[str, ...]:
        out = []
        for p in self.pieces:
            if isinstance(p, int):
                out.append(f"vertex {p}")
            else:
                out.append(f"face {'-'.join(str(d[0]) for d in p.darts)}")
        return tuple(out)


def is_nested(graph: Graph, emb: Embedding, inner: Sequence[int],
              outer: Sequence[int], outer_face: FaceWalk | None = None) -> bool:
    """Whether ``inner`` lies in Int(outer): both contractible and the
    inner cycle's vertices and edges inside the outer one."""
    return _nested(classify_cycle(graph, emb, inner, outer_face=outer_face),
                   classify_cycle(graph, emb, outer, outer_face=outer_face))


def _nested(ain: CycleAnalysis, aout: CycleAnalysis) -> bool:
    """``is_nested`` on two classified cycles, by bit masks: a face's
    vertices include the ends of its edges, so when C_in's edges lie in
    the union of the Int side's face edge masks, its vertices lie in the
    union of their vertex masks."""
    if not (ain.is_contractible and aout.is_contractible):
        return False
    return not ain.edge_mask & ~aout.int_edge_mask


def _face_certifies(face: FaceWalk, c_outer: tuple[int, ...], c_inner: tuple[int, ...],
                    shared: tuple[tuple[int, ...], set[Edge]]) -> bool:
    """The face-pinch condition: the outer cycle meets the face in one
    path of at least three edges, and the inner cycle meets it in exactly
    the shared piece, strictly interior to that path."""
    comps_outer = _intersection_components(c_outer, face.vertex_set, face.edge_set)
    if len(comps_outer) != 1:
        return False
    path, path_edges = comps_outer[0]
    if len(path_edges) == len(path) or len(path) < 4:  # a path of at least 3 edges
        return False
    comps_inner = _intersection_components(c_inner, face.vertex_set, face.edge_set)
    if len(comps_inner) != 1:
        return False
    q_verts, q_edges = comps_inner[0]
    if q_edges != shared[1] or set(q_verts) != set(shared[0]):
        return False
    return set(q_verts) <= set(path[1:-1])


def _classify_pinches(emb: Embedding, c_out: tuple[int, ...],
                      c_in: tuple[int, ...]) -> WellNestedKind | None:
    """The well-nested category of a nested pair (``c_in`` inside
    ``c_out``): free when disjoint, pinched on one or two pieces
    otherwise; None when no category applies.

    A single shared vertex pinches on that vertex; a shared path with an
    edge must be certified by a face the outer cycle crosses in a longer
    path (at least three edges) containing the shared piece strictly
    inside.
    """
    comps = _intersection_components(c_out, set(c_in), set(_cycle_edges(c_in)))
    if len(comps) == 0:
        return WellNestedKind.free()
    if len(comps) > 2:
        return None
    pieces = []
    for comp in comps:
        verts, edges = comp
        if not edges:
            pieces.append(verts[0])
            continue
        if len(edges) == len(verts):  # all of c_out, not a path
            return None
        cert = None
        for face in emb.faces():
            if face.vertex_set.issuperset(verts) and edges <= face.edge_set \
                    and _face_certifies(face, c_out, c_in, comp):
                cert = face
                break
        if cert is None:
            return None
        pieces.append(cert)
    if len(pieces) == 2:
        a, b = pieces
        if isinstance(a, int) and isinstance(b, int) and a == b:
            return None
        return WellNestedKind.on(*sorted(pieces, key=_piece_sort_key))
    return WellNestedKind.on(pieces[0])


def _piece_sort_key(p):
    return (0, p, ()) if isinstance(p, int) else (1, -1, p.key)


@dataclass(frozen=True)
class ChainResult:
    cycles: tuple[tuple[int, ...], ...]
    kinds: tuple[WellNestedKind, ...]
    discipline: str
    exact: bool


def longest_well_nested_chain(graph: Graph, emb: Embedding,
                              budget: int = 100_000,
                              outer_face: FaceWalk | None = None) -> ChainResult:
    """A maximum-length chain of well-nested contractible cycles (each
    nested in the next, one uniform discipline).  Exact when the cycle
    enumeration stayed within budget."""
    cycles, exact = enumerate_cycles(graph, budget)
    analyses = [(c, a) for c in cycles
                if (a := classify_cycle(graph, emb, c, outer_face=outer_face)).is_contractible]
    contractible = [c for c, _ in analyses]
    n = len(contractible)
    # (inner, outer) -> kind, and (discipline, inner) -> outers in increasing order
    nested_in: dict[tuple[int, int], WellNestedKind] = {}
    succ: dict[tuple[tuple, int], list[int]] = {}
    for i, j in itertools.permutations(range(n), 2):
        if _nested(analyses[i][1], analyses[j][1]):
            kind = _classify_pinches(emb, contractible[j], contractible[i])
            if kind is not None:
                nested_in[(i, j)] = kind
                succ.setdefault((kind.key, i), []).append(j)

    @functools.cache
    def height(key: tuple, i: int) -> int:
        """Cycles in the longest chain of discipline ``key`` from cycle i."""
        return 1 + max((height(key, j) for j in succ.get((key, i), ())), default=0)

    # chains run inner to outer; the lexicographically least index
    # sequence of the best length is taken, choosing its first pair over
    # all disciplines before following that pair's discipline
    chain = list(range(min(n, 1)))
    if nested_in:
        length = max(height(kind.key, j) + 1 for (_, j), kind in nested_in.items())
        chain = list(min(pair for pair, kind in nested_in.items()
                         if height(kind.key, pair[1]) == length - 1))
        key = nested_in[chain[0], chain[1]].key
        while len(chain) < length:
            chain.append(next(j for j in succ[key, chain[-1]]
                              if height(key, j) == length - len(chain)))
    cyc_seq = tuple(contractible[i] for i in chain)
    kinds = tuple(nested_in[pair] for pair in zip(chain, chain[1:]))
    if not kinds or kinds[0].tag == "free":
        discipline = "free"
    else:
        discipline = "pinched on " + " and ".join(kinds[0].piece_names())
    return ChainResult(cyc_seq, kinds, discipline, exact)


# ---------------------------------------------------------------------------
# Radius
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusMap:
    """Face-layer radii relative to a contractible boundary cycle."""

    layers: tuple[tuple[FaceWalk, ...], ...]

    @property
    def radius(self) -> int:
        return len(self.layers)


def radius(graph: Graph, emb: Embedding, cycle: Sequence[int],
           outer_face: FaceWalk | None = None) -> RadiusMap:
    """BFS layering of the faces inside a contractible cycle: layer 1
    touches the cycle, layer i+1 touches layer i.  A cycle bounding a
    disk (empty interior) has radius 0."""
    ana = classify_cycle(graph, emb, cycle, outer_face=outer_face)
    if not ana.is_contractible:
        raise StructureError("radius: cycle is not contractible")
    faces = list(ana.faces_inside())
    cyc_verts = set(ana.cycle)
    layers: list[tuple[FaceWalk, ...]] = []
    remaining = faces
    frontier_verts = cyc_verts
    while remaining:
        layer = [f for f in remaining if f.vertex_set & frontier_verts]
        if not layer:
            raise StructureError("radius layering stalled; faces unreachable "
                                 "from the boundary")
        remaining = [f for f in remaining if not (f.vertex_set & frontier_verts)]
        layers.append(tuple(sorted(layer, key=lambda f: f.key)))
        frontier_verts = set().union(*(f.vertex_set for f in layer))
    return RadiusMap(tuple(layers))
