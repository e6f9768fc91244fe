"""Forbidden-structure detectors for embedded graphs.

Nested and well-nested contractible cycles, well-homotopic families,
contractible-square contexts with the good/bad threshold, almost
disjoint families, cycles on a spanning tree, maximal nonhomotopic path
families, and the face-layer radius of a contractible region.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import networkx as nx

from .graph import Edge, Graph, GraphError, edge_key
from .embedding import Embedding, EmbeddingError, FaceWalk, check_cycle
from .topology import (CycleAnalysis, TopologyError, are_homotopic,
                       classify_cycle, _as_path_sequence, _cycle_edges,
                       _intersection_components, _subgraph_as_cycle)


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Cycle enumeration (deterministic: shortest first, lexicographic)
# ---------------------------------------------------------------------------


def enumerate_cycles(graph: Graph, budget: int = 100_000) -> tuple[list[tuple[int, ...]], bool]:
    """Simple cycles as canonical vertex tuples; (cycles, exact).  The
    exact flag drops when the budget truncates the enumeration."""
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
    l = len(cyc)
    i = cyc.index(min(cyc))
    seq = cyc[i:] + cyc[:i]
    if seq[1] > seq[-1]:
        seq = (seq[0],) + tuple(reversed(seq[1:]))
    return seq


# ---------------------------------------------------------------------------
# Almost disjoint families, cycles on a spanning tree
# ---------------------------------------------------------------------------


def is_almost_disjoint(cycles: Sequence[Sequence[int]]) -> bool:
    """Each cycle shares at most one vertex with the union of the others."""
    sets = [set(c) for c in cycles]
    for i, s in enumerate(sets):
        union = set().union(*(t for j, t in enumerate(sets) if j != i)) if len(sets) > 1 else set()
        if len(s & union) > 1:
            return False
    return True


def max_almost_disjoint_subfamily(members: Sequence[frozenset[int]]) -> list[int]:
    """Indices of a maximum subfamily whose members pairwise satisfy the
    almost-disjoint rule (each touches the union of the others in at most
    one vertex).  Exact branch and bound; first optimum in index order."""
    n = len(members)
    best: list[int] = []

    def feasible(chosen: list[int], cand: int) -> bool:
        trial = chosen + [cand]
        for i in trial:
            union: set[int] = set()
            for j in trial:
                if j != i:
                    union |= members[j]
            if len(members[i] & union) > 1:
                return False
        return True

    def rec(start: int, chosen: list[int]):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + (n - start) <= len(best):
            return
        for i in range(start, n):
            if feasible(chosen, i):
                chosen.append(i)
                rec(i + 1, chosen)
                chosen.pop()

    rec(0, [])
    return best


def is_cycles_on_spanning_tree(graph: Graph, root: int,
                               subgraphs: Sequence[Graph]) -> bool:
    """Whether the subgraphs are cycles on a spanning tree rooted at
    ``root``: some spanning tree of their union leaves exactly one cotree
    edge per subgraph, and each subgraph is its fundamental cycle plus
    the tree path from the root."""
    if not subgraphs:
        return False
    union_vertices = set()
    union_edges = set()
    for s in subgraphs:
        if not s.is_subgraph_of(graph):
            raise StructureError("subgraph is not contained in the host graph")
        union_vertices |= set(s.vertices)
        union_edges |= set(s.edges)
    if root not in union_vertices:
        return False
    union = graph.edge_subgraph(union_edges, extra_vertices=union_vertices)
    if not union.is_connected():
        return False
    k1 = len(subgraphs)
    if union.m - (union.n - 1) != k1:
        return False
    # candidate cotree edge per subgraph: edges on that subgraph only
    exclusive = []
    for i, s in enumerate(subgraphs):
        others = set()
        for j, t in enumerate(subgraphs):
            if j != i:
                others |= set(t.edges)
        exclusive.append([e for e in s.edges if e not in others])
    for combo in itertools.product(*exclusive):
        if len(set(combo)) != k1:
            continue
        tree_edges = union_edges - set(combo)
        tree = graph.edge_subgraph(tree_edges, extra_vertices=union_vertices)
        if tree.m != union.n - 1 or not tree.is_connected():
            continue
        if all(_matches_tree_cycle(tree, e, root, s)
               for e, s in zip(combo, subgraphs)):
            return True
    return False


def _tree_path(tree: Graph, a: int, b: int) -> list[int]:
    parent = {a: None}
    queue = [a]
    while queue:
        nxt = []
        for u in queue:
            if u == b:
                queue = []
                break
            for w in tree.neighbors(u):
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
        else:
            queue = nxt
            continue
        break
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path[::-1]


def _matches_tree_cycle(tree: Graph, cotree_edge: Edge, root: int,
                        expected: Graph) -> bool:
    u, v = cotree_edge
    cyc_path = _tree_path(tree, u, v)
    cycle_edges = {edge_key(a, b) for a, b in zip(cyc_path, cyc_path[1:])}
    cycle_edges.add(cotree_edge)
    cycle_vertices = set(cyc_path)
    if root in cycle_vertices:
        access: list[int] = []
    else:
        best = None
        for x in cycle_vertices:
            p = _tree_path(tree, root, x)
            if sum(1 for y in p if y in cycle_vertices) == 1:
                best = p
                break
        if best is None:
            return False
        access = best
    edges = set(cycle_edges)
    for a, b in zip(access, access[1:]):
        edges.add(edge_key(a, b))
    verts = cycle_vertices | set(access)
    return set(expected.edges) == edges and set(expected.vertices) == verts


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

    def piece_names(self) -> tuple[str, ...]:
        out = []
        for p in self.pieces:
            if isinstance(p, int):
                out.append(f"vertex {p}")
            else:
                out.append(f"face {'-'.join(str(d[0]) for d in p.darts)}")
        return tuple(out)


def is_nested(graph: Graph, emb: Embedding, inner: Sequence[int],
              outer: Sequence[int], outer_face: FaceWalk | None = None,
              cache: dict | None = None) -> bool:
    """Whether ``inner`` lies in Int(outer): both contractible and the
    inner cycle's vertices and edges inside the outer one."""
    return _nested(_classified(graph, emb, inner, outer_face, cache),
                   _classified(graph, emb, outer, outer_face, cache))


def _nested(ain: CycleAnalysis, aout: CycleAnalysis) -> bool:
    """``is_nested`` on two classified cycles."""
    if not (ain.is_contractible and aout.is_contractible):
        return False
    return aout.int_vertices.issuperset(ain.cycle) and ain.edges <= aout.int_edges


def _classified(graph: Graph, emb: Embedding, cycle: Sequence[int],
                outer_face: FaceWalk | None, cache: dict | None) -> CycleAnalysis:
    """``classify_cycle`` through the cache, keyed by the canonical cycle.
    A hit is a rotation or reversal of a cycle validated when it was
    stored, so only a miss validates."""
    if cache is None:
        return classify_cycle(graph, emb, cycle, outer_face=outer_face)
    face = None if outer_face is None else outer_face.key
    cyc = tuple(cycle)
    hit = cache.get((_canonical_cycle(cyc), face)) if len(cyc) >= 3 else None
    if hit is not None:
        return hit
    res = classify_cycle(graph, emb, cyc, outer_face=outer_face)
    cache[(_canonical_cycle(res.cycle), face)] = res
    return res


def _face_certifies(graph: Graph, emb: Embedding, face: FaceWalk,
                    c_outer: tuple[int, ...], c_inner: tuple[int, ...],
                    shared: tuple[frozenset[int], set[Edge]]) -> bool:
    """The face-pinch condition: the outer cycle meets the face in one
    path of at least three edges, and the inner cycle meets it in exactly
    the shared piece, strictly interior to that path."""
    comps_outer = _intersection_components(c_outer, face.vertex_set, face.edge_set)
    if len(comps_outer) != 1:
        return False
    p = _as_path_sequence(*comps_outer[0])
    if p is None or len(p) < 4:  # at least 3 edges
        return False
    comps_inner = _intersection_components(c_inner, face.vertex_set, face.edge_set)
    if len(comps_inner) != 1:
        return False
    q_verts, q_edges = comps_inner[0]
    if (q_verts, q_edges) != shared:
        return False
    interior = set(p[1:-1])
    return q_verts <= interior


def classify_well_nested(graph: Graph, emb: Embedding,
                         outer: Sequence[int], inner: Sequence[int],
                         outer_face: FaceWalk | None = None,
                         cache: dict | None = None) -> WellNestedKind | None:
    """The well-nested category of a nested pair (inner inside outer):
    free when disjoint, pinched on one or two pieces otherwise; None when
    no category applies.

    A single shared vertex pinches on that vertex; a shared path with an
    edge must be certified by a face the outer cycle crosses in a longer
    path (at least three edges) containing the shared piece strictly
    inside.
    """
    c_out = check_cycle(graph, outer)
    c_in = check_cycle(graph, inner)
    if not is_nested(graph, emb, c_in, c_out, outer_face, cache):
        raise StructureError("classify_well_nested: inner cycle is not nested in outer")
    return _classify_pinches(graph, emb, c_out, c_in)


def _classify_pinches(graph: Graph, emb: Embedding, c_out: tuple[int, ...],
                      c_in: tuple[int, ...]) -> WellNestedKind | None:
    comps = _intersection_components(c_out, set(c_in), set(_cycle_edges(c_in)))
    if len(comps) == 0:
        return WellNestedKind.free()
    if len(comps) > 2:
        return None
    pieces = []
    for comp in comps:
        verts, edges = comp
        if len(verts) == 1 and not edges:
            pieces.append(next(iter(verts)))
            continue
        if _as_path_sequence(*comp) is None:
            return None
        cert = None
        for face in emb.faces():
            if verts <= face.vertex_set and edges <= face.edge_set \
                    and _face_certifies(graph, emb, face, c_out, c_in, comp):
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


def _same_piece(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, FaceWalk) and isinstance(b, FaceWalk):
        return a.key == b.key
    return False


def _kinds_uniform(kinds: list[WellNestedKind]) -> bool:
    """A chain discipline: all free, all pinched on one common piece, or
    all pinched on two common pieces."""
    if all(k.tag == "free" for k in kinds):
        return True
    if all(k.tag == "pinched-one" for k in kinds):
        first = kinds[0].pieces[0]
        return all(_same_piece(k.pieces[0], first) for k in kinds)
    if all(k.tag == "pinched-two" for k in kinds):
        first = kinds[0].pieces
        return all(_same_piece(k.pieces[0], first[0]) and _same_piece(k.pieces[1], first[1])
                   for k in kinds)
    return False


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
    nested_in: dict[tuple[int, int], WellNestedKind | None] = {}
    for i, j in itertools.permutations(range(n), 2):
        if _nested(analyses[i][1], analyses[j][1]):
            kind = _classify_pinches(graph, emb, contractible[j], contractible[i])
            if kind is not None:
                nested_in[(i, j)] = kind
    # longest path in the nesting DAG per discipline signature
    best: tuple[list[int], list[WellNestedKind]] = ([], [])
    if n:
        best = ([0], [])
    memo: dict = {}

    def extend(chain: list[int], kinds: list[WellNestedKind]):
        nonlocal best
        if len(chain) > len(best[0]):
            best = (list(chain), list(kinds))
        last = chain[-1]
        for (i, j), kind in nested_in.items():
            if i != last:
                continue
            if kinds and not _kinds_uniform(kinds + [kind]):
                continue
            chain.append(j)
            kinds.append(kind)
            extend(chain, kinds)
            chain.pop()
            kinds.pop()

    # chains run inner to outer
    for start in range(n):
        extend([start], [])
    cyc_seq = tuple(contractible[i] for i in best[0])
    kinds = tuple(best[1])
    if not kinds:
        discipline = "free"
    elif kinds[0].tag == "free":
        discipline = "free"
    else:
        discipline = "pinched on " + " and ".join(kinds[0].piece_names())
    return ChainResult(cyc_seq, kinds, discipline, exact)


# ---------------------------------------------------------------------------
# Well-homotopic classification
# ---------------------------------------------------------------------------


def classify_well_homotopic(graph: Graph, emb: Embedding,
                            c1: Sequence[int], c2: Sequence[int],
                            cache: dict | None = None) -> WellNestedKind | None:
    """The six-category analogue for noncontractible homotopic cycles."""
    cyc1 = check_cycle(graph, c1)
    cyc2 = check_cycle(graph, c2)
    a1 = _classified(graph, emb, cyc1, None, cache)
    a2 = _classified(graph, emb, cyc2, None, cache)
    if a1.is_contractible or a2.is_contractible:
        raise StructureError("classify_well_homotopic: cycles must be noncontractible")
    if are_homotopic(graph, emb, cyc1, cyc2) is None:
        raise StructureError("classify_well_homotopic: cycles are not homotopic")
    return _classify_pinches(graph, emb, cyc1, cyc2)


def cycles_in_this_order(graph: Graph, emb: Embedding,
                         cycles: Sequence[Sequence[int]]) -> bool:
    """Whether consecutive cuts leave the other cycles outside: for each
    consecutive pair, no listed cycle meets the strict interior of their
    common cylinder."""
    cycs = [check_cycle(graph, c) for c in cycles]
    for i in range(len(cycs) - 1):
        region = are_homotopic(graph, emb, cycs[i], cycs[i + 1])
        if region is None:
            return False
        strict = set(region.vertices) - set(cycs[i]) - set(cycs[i + 1])
        for j, other in enumerate(cycs):
            if j in (i, i + 1):
                continue
            if set(other) & strict:
                return False
    return True


def well_homotopic_in_order(graph: Graph, emb: Embedding,
                            cycles: Sequence[Sequence[int]],
                            cache: dict | None = None) -> bool:
    """The family is well-homotopic in the given order: consecutive pairs
    classify into one uniform discipline and the order condition holds."""
    if len(cycles) < 2:
        return True
    if not cycles_in_this_order(graph, emb, cycles):
        return False
    kinds = []
    for a, b in zip(cycles, cycles[1:]):
        kind = classify_well_homotopic(graph, emb, a, b, cache)
        if kind is None:
            return False
        kinds.append(kind)
    return _kinds_uniform(kinds)


# ---------------------------------------------------------------------------
# Maximum nonhomotopic internally disjoint families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathFamily:
    paths: tuple[tuple[int, ...], ...]
    size: int
    exact: bool


def _all_paths(graph: Graph, a: int, b: int, budget: int) -> tuple[list[tuple[int, ...]], bool]:
    out = []
    exact = True
    stack = [(a, (a,), {a})]
    while stack:
        u, path, seen = stack.pop()
        if len(out) > budget:
            exact = False
            break
        if u == b:
            out.append(path)
            continue
        for w in sorted(graph.neighbors(u)):
            if w == b and len(path) >= 1:
                out.append(path + (w,))
            elif w not in seen:
                stack.append((w, path + (w,), seen | {w}))
    uniq = sorted(set(out), key=lambda p: (len(p), p))
    return [p for p in uniq if p[-1] == b and len(p) >= 2], exact


def _cycles_through(graph: Graph, a: int, budget: int) -> tuple[list[tuple[int, ...]], bool]:
    cycles, exact = enumerate_cycles(graph, budget)
    return [c for c in cycles if a in c], exact


def max_nonhomotopic_internally_disjoint(graph: Graph, emb: Embedding,
                                         a: int, b: int,
                                         budget: int = 100_000,
                                         cache: dict | None = None) -> PathFamily:
    """A maximum family of pairwise internally disjoint a-b paths (cycles
    through a when a == b) with no two homotopic.

    Two a-b paths are homotopic when their union cycle is contractible;
    two cycles through a are homotopic via the cylinder criterion.  Pairs
    the criterion does not certify count as nonhomotopic.
    """
    if cache is None:
        cache = {}
    if a == b:
        members, exact = _cycles_through(graph, a, budget)
        compat = _compat_cycles(graph, emb, members, a, cache)
    else:
        members, exact = _all_paths(graph, a, b, budget)
        compat = _compat_paths(graph, emb, members, cache)
    chosen = _max_clique(len(members), compat)
    return PathFamily(tuple(members[i] for i in chosen), len(chosen), exact)


def _compat_paths(graph: Graph, emb: Embedding, paths, cache) -> list[set[int]]:
    n = len(paths)
    compat: list[set[int]] = [set() for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        pi, pj = paths[i], paths[j]
        if set(pi[1:-1]) & set(pj[1:-1]):
            continue
        union = _paths_union_cycle(pi, pj)
        if union is None:
            continue  # unions of length 2 (same edge twice) cannot occur
        if emb.cycle_signature(union) > 0:
            ana = _classified(graph, emb, union, None, cache)
            if ana.is_contractible:
                continue  # homotopic
        compat[i].add(j)
        compat[j].add(i)
    return compat


def _paths_union_cycle(p1, p2) -> tuple[int, ...] | None:
    inner = list(p2[1:-1])
    cyc = tuple(list(p1) + inner[::-1])
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        return None
    return cyc


def _compat_cycles(graph: Graph, emb: Embedding, cycles, a, cache) -> list[set[int]]:
    n = len(cycles)
    compat: list[set[int]] = [set() for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        ci, cj = cycles[i], cycles[j]
        if (set(ci) & set(cj)) != {a}:
            continue
        homotopic = False
        if emb.cycle_signature(ci) > 0 and emb.cycle_signature(cj) > 0:
            try:
                homotopic = are_homotopic(graph, emb, ci, cj) is not None
            except TopologyError:
                homotopic = False
        if not homotopic:
            compat[i].add(j)
            compat[j].add(i)
    return compat


def _max_clique(n: int, compat: list[set[int]]) -> list[int]:
    best: list[int] = []

    def rec(chosen: list[int], cands: list[int]):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + len(cands) <= len(best):
            return
        for idx, c in enumerate(cands):
            rec(chosen + [c], [d for d in cands[idx + 1:] if d in compat[c]])

    rec([], list(range(n)))
    return best


def nonhomotopic_bound(genus: int) -> int:
    """Prop-4.2.7-style cap on the family size (k+1 with k the paper's
    index bound)."""
    k = genus if genus <= 1 else 3 * genus - 3
    return k + 1


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

    def radius_of(self, face: FaceWalk) -> int:
        for i, layer in enumerate(self.layers):
            if any(f.key == face.key for f in layer):
                return i + 1
        raise StructureError("face is not inside the boundary cycle")


def radius(graph: Graph, emb: Embedding, cycle: Sequence[int],
           outer_face: FaceWalk | None = None,
           cache: dict | None = None) -> RadiusMap:
    """BFS layering of the faces inside a contractible cycle: layer 1
    touches the cycle, layer i+1 touches layer i.  A cycle bounding a
    disk (empty interior) has radius 0."""
    ana = _classified(graph, emb, cycle, outer_face, cache)
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


# ---------------------------------------------------------------------------
# Boundary faces, closest enclosing cycle, square contexts
# ---------------------------------------------------------------------------


def boundary_faces(graph: Graph, emb: Embedding, outer: Sequence[int],
                   inner: Sequence[int], outer_face: FaceWalk | None = None,
                   cache: dict | None = None) -> tuple[FaceWalk, ...]:
    """The faces of Int(outer u inner) that touch the outer cycle: faces
    inside the outer cycle, not strictly inside the inner one, sharing a
    vertex with the outer cycle."""
    if not is_nested(graph, emb, inner, outer, outer_face, cache):
        raise StructureError("boundary_faces: inner cycle is not nested in outer")
    a_out = _classified(graph, emb, outer, outer_face, cache)
    a_in = _classified(graph, emb, inner, outer_face, cache)
    inside_outer = {f.key: f for f in a_out.faces_inside()}
    strictly_inside_inner = {f.key for f in a_in.faces_inside()}
    out_v = set(a_out.cycle)
    band = [f for key, f in inside_outer.items() if key not in strictly_inside_inner]
    return tuple(sorted((f for f in band if f.vertex_set & out_v),
                        key=lambda f: f.key))


def touching_faces(graph: Graph, emb: Embedding, cycle: Sequence[int],
                   outer_face: FaceWalk | None = None,
                   cache: dict | None = None) -> tuple[FaceWalk, ...]:
    """Faces inside the cycle that share a vertex with it."""
    ana = _classified(graph, emb, cycle, outer_face, cache)
    if not ana.is_contractible:
        raise StructureError("touching_faces: cycle is not contractible")
    cv = set(ana.cycle)
    return tuple(f for f in ana.faces_inside() if f.vertex_set & cv)


@dataclass(frozen=True)
class ClosestCycle:
    cycle: tuple[int, ...] | None
    degenerate: str | None  # None | "equals-boundary" | "innermost"


def closest_enclosing_cycle(graph: Graph, emb: Embedding, outer: Sequence[int],
                            faces: Iterable[FaceWalk],
                            outer_face: FaceWalk | None = None,
                            cache: dict | None = None) -> ClosestCycle:
    """The cycle nested in ``outer`` closest to it whose band Int(outer u
    cycle) holds the given faces.

    Computed as the boundary of the hole left by the given faces' closure
    against the outer cycle: the union subgraph of the outer cycle and
    the face boundaries is re-embedded, and its unique inner hole must be
    bounded by a simple cycle.  Uniqueness failures raise; no faces at
    all yields the outer cycle itself, and faces filling the whole
    interior yield the innermost flag.
    """
    ana = _classified(graph, emb, outer, outer_face, cache)
    if not ana.is_contractible:
        raise StructureError("closest_enclosing_cycle: cycle is not contractible")
    face_list = list(faces)
    inside = {f.key: f for f in ana.faces_inside()}
    for f in face_list:
        if f.key not in inside:
            raise StructureError("closest_enclosing_cycle: a face is not inside the cycle")
    if not face_list:
        return ClosestCycle(ana.cycle, "equals-boundary")
    hole_keys = set(inside) - {f.key for f in face_list}
    if not hole_keys:
        return ClosestCycle(None, "innermost")
    # group the complement faces into regions: two faces merge when they
    # share an edge not on the union subgraph H = outer + given faces
    h_edges = set(ana.edges)
    for f in face_list:
        h_edges |= f.edge_set
    keys = sorted(hole_keys)
    parent = {k: k for k in keys}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_edge: dict[Edge, list] = {}
    for k in keys:
        for e in inside[k].edge_set:
            by_edge.setdefault(e, []).append(k)
    for e, members in by_edge.items():
        if e in h_edges:
            continue
        for other in members[1:]:
            parent[find(members[0])] = find(other)
    regions: dict = {}
    for k in keys:
        regions.setdefault(find(k), []).append(k)
    if len(regions) > 1:
        raise StructureError(
            f"closest_enclosing_cycle: {len(regions)} separate holes; no single "
            "closest cycle exists")
    region_keys = next(iter(regions.values()))
    # the hole's boundary: edges between the hole region and H's side
    boundary_edges = set()
    for k in region_keys:
        for e in inside[k].edge_set:
            if e in h_edges:
                boundary_edges.add(e)
    sub = graph.edge_subgraph(boundary_edges)
    cyc = _subgraph_as_cycle(sub)
    if cyc is None:
        raise StructureError("closest_enclosing_cycle: hole boundary is not a "
                             "simple cycle (pinched region)")
    return ClosestCycle(cyc, None)


@dataclass(frozen=True)
class SquareContext:
    """A contractible square (outer, middle, inner) with its boundary and
    interior face counts against a reference embedding of G - e."""

    cycles: tuple[tuple[int, ...], ...]
    boundary: tuple[FaceWalk, ...]
    interior: tuple[FaceWalk, ...]
    boundary_new: tuple[FaceWalk, ...]      # boundary faces not faces of Pi_e
    interior_new: tuple[FaceWalk, ...]      # max almost-disjoint non-Pi_e faces
    verdict: str                            # "good" | "bad"
    boundary_new_empty: bool                # the threshold's negative corner case

    @property
    def threshold(self) -> int:
        return 18 * (42 * len(self.boundary_new) - 3)


def is_contractible_square(graph: Graph, emb: Embedding,
                           outer: Sequence[int], middle: Sequence[int],
                           inner: Sequence[int],
                           outer_face: FaceWalk | None = None,
                           cache: dict | None = None) -> bool:
    """(outer, middle, inner) form a contractible square with respect to
    the outer cycle: they are well nested inward and the middle cycle is
    the closest one whose band captures the outer cycle's touching
    faces."""
    k1 = classify_well_nested(graph, emb, outer, middle, outer_face, cache)
    k2 = classify_well_nested(graph, emb, middle, inner, outer_face, cache)
    if k1 is None or k2 is None or not _kinds_uniform([k1, k2]):
        return False
    b0 = touching_faces(graph, emb, outer, outer_face, cache)
    closest = closest_enclosing_cycle(graph, emb, outer, b0, outer_face, cache)
    if closest.cycle is None:
        return False
    return _canonical_cycle(closest.cycle) == _canonical_cycle(check_cycle(graph, middle))


def square_verdict(graph: Graph, emb: Embedding, emb_e: Embedding,
                   square: tuple[Sequence[int], Sequence[int], Sequence[int]],
                   e: tuple[int, int],
                   outer_face: FaceWalk | None = None,
                   cache: dict | None = None) -> SquareContext:
    """Evaluate the good/bad threshold of a contractible square against a
    reference embedding of G - e.

    Bad means the maximum almost-disjoint family of interior faces that
    are not faces of the reference embedding outnumbers
    18 (42 |B_N| - 3).  The |B_N| = 0 corner (negative threshold) is
    reported distinctly via ``boundary_new_empty``.
    """
    outer, middle, inner = square
    ek = edge_key(*e)
    if set(emb_e.graph.vertices) != set(graph.vertices) or \
            set(emb_e.graph.edges) != set(graph.edges) - {ek}:
        raise StructureError("square_verdict: reference embedding must be of G - e")
    if not is_contractible_square(graph, emb, outer, middle, inner, outer_face, cache):
        raise StructureError("square_verdict: not a contractible square "
                             "(closest-cycle condition failed)")
    a_inner = _classified(graph, emb, inner, outer_face, cache)
    if ek not in a_inner.int_edges or ek in a_inner.edges:
        raise StructureError("square_verdict: edge is not interior to the inner cycle")
    e_faces = {f.key for f in emb_e.faces()}
    b = boundary_faces(graph, emb, outer, middle, outer_face, cache)
    b_new = tuple(f for f in b if f.key not in e_faces)
    interior = a_inner.faces_inside()
    interior_candidates = [f for f in interior if f.key not in e_faces]
    idx = max_almost_disjoint_subfamily([f.vertex_set for f in interior_candidates])
    i_new = tuple(interior_candidates[i] for i in idx)
    threshold = 18 * (42 * len(b_new) - 3)
    verdict = "bad" if len(i_new) > threshold else "good"
    return SquareContext(
        cycles=(check_cycle(graph, outer), check_cycle(graph, middle),
                check_cycle(graph, inner)),
        boundary=b, interior=interior, boundary_new=b_new, interior_new=i_new,
        verdict=verdict, boundary_new_empty=(len(b_new) == 0))


def minimizing_reference_embedding(graph: Graph, emb: Embedding,
                                   square, e: tuple[int, int],
                                   budget: int = 100_000,
                                   outer_face: FaceWalk | None = None) -> tuple[SquareContext, bool]:
    """The adversarial reference: enumerate minimum-genus embeddings of
    G - e (within budget) and keep the one minimizing |I_N|.  Returns
    (context, exhaustive); a truncated enumeration makes the verdict
    conditional on the sampled references."""
    from .embedding import enumerate_embeddings
    from .genus_search import cached_profile
    ek = edge_key(*e)
    g_minus = Graph.build(graph.vertices, [x for x in graph.edges if x != ek])
    target = cached_profile(g_minus).overall_min if g_minus.is_connected() else None
    best: SquareContext | None = None
    count = 0
    exhaustive = True
    for cand in enumerate_embeddings(g_minus):
        count += 1
        if count > budget:
            exhaustive = False
            break
        if target is not None and cand.euler_genus() != target:
            continue
        ctx = square_verdict(graph, emb, cand, square, e, outer_face)
        if best is None or len(ctx.interior_new) < len(best.interior_new):
            best = ctx
    if best is None:
        raise StructureError("no reference embedding found within budget")
    return best, exhaustive
