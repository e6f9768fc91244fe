"""Independent oracles for the test suite.

Everything here recomputes results through a different route than the
package: the face counter follows the traversal rule with plain dicts,
the genus oracle enumerates the full rotation-by-signature product with
no pruning and no symmetry reduction, the search's earlier walk rule
bounds open faces by min_face alone, treewidth is minimized over all
elimination orderings or by the recurrence over all vertex subsets, a
balanced 1-separation rebuilds tree - t0 and its components for each
candidate node, isomorphism classes are settled pair by pair with
networkx VF2, a cycle's sides are found by a union-find over every edge
off it, homotopy is decided by a second cut and by counting cycle copies
in its pieces, and the longest well-nested chain walks every path of
the nesting DAG.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import networkx as nx

from surface_minors.graph import Graph, edge_key
from surface_minors.embedding import Embedding, EmbeddingError, FaceWalk, check_cycle
from surface_minors.topology import (CutResult, CycleAnalysis, CycleClassification,
                                     TopologyError, _cycle_edges, _intersection_components,
                                     classify_cycle, induced_embedding)
from surface_minors.structure import (ChainResult, WellNestedKind, enumerate_cycles,
                                      _classify_pinches)
from surface_minors.treedecomp import TreeDecomposition, TreeDecompositionError


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
    if orbits % 2:
        raise ValueError(f"odd number of facial orbits ({orbits}): faces come in mirror pairs")
    return orbits // 2


def naive_genus(graph: Graph, rotation, signature) -> int:
    f = naive_face_count(graph, rotation, signature)
    return 2 - (graph.n - graph.m + f)


def naive_is_orientable(graph: Graph, signature: dict[tuple[int, int], int]) -> bool:
    """True iff switching at some vertex set makes every signature +1:
    propagate a side bit along each component and look for a clash."""
    side: dict[int, int] = {}
    for root in graph.vertices:
        if root in side:
            continue
        side[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                s = side[u] * signature[edge_key(u, w)]
                if w not in side:
                    side[w] = s
                    stack.append(w)
                elif side[w] != s:
                    return False
    return True


def _all_rotations(graph: Graph):
    """Every rotation system: each vertex's (d-1)! cyclic orders."""
    per_vertex = []
    for v in graph.vertices:
        ns = graph.neighbors(v)
        if len(ns) <= 2:
            per_vertex.append([ns])
        else:
            per_vertex.append([(ns[0],) + p for p in itertools.permutations(ns[1:])])
    for rots in itertools.product(*per_vertex):
        yield dict(zip(graph.vertices, rots))


def all_rotation_signatures(graph: Graph):
    """Every (rotation, signature, orientable) with signatures +1 on a
    spanning tree: the full product, no pruning or symmetry reduction."""
    tree = set(graph.bfs[1])
    cotree = [e for e in graph.edges if e not in tree]
    for rotation in _all_rotations(graph):
        for pattern in itertools.product((1, -1), repeat=len(cotree)):
            signature = {e: 1 for e in graph.edges}
            for e, s in zip(cotree, pattern):
                signature[e] = s
            yield rotation, signature, all(s > 0 for s in pattern)


def all_signature_min_genus(graph: Graph) -> tuple[int, int | None]:
    """(orientable minimum, nonorientable minimum) over every rotation
    system and every one of the 2^m signatures, each embedding's
    orientability decided by ``naive_is_orientable``: no spanning-tree
    normal form is assumed."""
    orient = None
    nonor = None
    for rotation in _all_rotations(graph):
        for pattern in itertools.product((1, -1), repeat=graph.m):
            signature = dict(zip(graph.edges, pattern))
            g = naive_genus(graph, rotation, signature)
            if naive_is_orientable(graph, signature):
                orient = g if orient is None else min(orient, g)
            else:
                nonor = g if nonor is None else min(nonor, g)
    return orient, nonor


def unpruned_min_genus(graph: Graph) -> tuple[int, int | None]:
    """(orientable minimum, nonorientable minimum) by full enumeration of
    every rotation system against every cotree signature pattern, with no
    pruning or symmetry reduction."""
    if not graph.is_connected():
        raise ValueError("unpruned_min_genus: graph must be connected")
    orient = None
    nonor = None
    for rotation, signature, orientable in all_rotation_signatures(graph):
        g = naive_genus(graph, rotation, signature)
        if orientable:
            orient = g if orient is None else min(orient, g)
        else:
            nonor = g if nonor is None else min(nonor, g)
    return orient, nonor


class MinFaceWalks:
    """The walk rule that the genus search pruned with before the
    distance face bound, kept to compare the two: every orbit still to
    close holds at least ``min_face`` states, so there are at most
    (sum over open walks of min(length, min_face)) // min_face of them.
    The same interface as ``genus_search._FaceTracker``, built from
    (number of states, min_face) in place of its (gap, weight) tables.
    """

    def __init__(self, nstates: int, min_face: int):
        self.start_of = list(range(nstates))
        self.end_of = list(range(nstates))
        self.length = [1] * nstates
        self.min_face = min_face
        self.orbits = 0
        self.walk_sum = nstates
        self.saved: list[tuple[int, int]] = []

    def link(self, pairs) -> int:
        start_of, end_of, length, cap = self.start_of, self.end_of, self.length, self.min_face
        self.saved.append((self.orbits, self.walk_sum))
        for s, t in pairs:
            a = start_of[s]
            lt = length[t]
            if a == t:
                self.orbits += 1
                self.walk_sum -= min(lt, cap)
            else:
                b = end_of[t]
                end_of[a] = b
                start_of[b] = a
                la = length[a]
                length[a] = la + lt
                self.walk_sum += min(la + lt, cap) - min(la, cap) - min(lt, cap)
        return self.orbits + self.walk_sum // cap

    def unlink(self, pairs) -> None:
        start_of, end_of, length = self.start_of, self.end_of, self.length
        for s, t in reversed(pairs):
            a = start_of[s]
            if a != t:
                end_of[a] = s
                start_of[end_of[t]] = t
                length[a] -= length[t]
        self.orbits, self.walk_sum = self.saved.pop()


# ---------------------------------------------------------------------------
# Exhaustive treewidth
# ---------------------------------------------------------------------------


def brute_force_treewidth(graph: Graph) -> int:
    """Minimum over all elimination orderings of the maximum clique the
    elimination creates (n <= 9)."""
    if graph.n > 9:
        raise ValueError(f"brute_force_treewidth: n = {graph.n} > 9 orderings is too many")
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


def subset_dp_treewidth(graph: Graph) -> int:
    """Treewidth by the full recurrence over all 2^n vertex subsets (the
    Bodlaender-Fomin-Koster-Kratsch-Thilikos recurrence): best[S] is the
    least width of an order eliminating S first (n <= 14)."""
    if graph.n > 14:
        raise ValueError(f"subset_dp_treewidth: n = {graph.n} > 14 subsets is too many")
    vertices = list(graph.vertices)
    n = len(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    adj_bits = [0] * n
    for u, v in graph.edges:
        adj_bits[pos[u]] |= 1 << pos[v]
        adj_bits[pos[v]] |= 1 << pos[u]
    full = (1 << n) - 1

    def cost_of(v: int, eliminated: int) -> int:
        # neighbors of v in the fill graph after eliminating `eliminated`:
        # vertices reachable from v through eliminated vertices
        seen = 1 << v
        stack = [v]
        nbrs = 0
        while stack:
            u = stack.pop()
            cand = adj_bits[u] & ~seen
            seen |= cand
            direct = cand & ~eliminated
            nbrs |= direct
            through = cand & eliminated
            while through:
                w = (through & -through).bit_length() - 1
                stack.append(w)
                through &= through - 1
        return bin(nbrs).count("1")

    best: dict[int, int] = {0: 0}
    # iterate subsets by popcount so predecessors exist
    by_count: list[list[int]] = [[] for _ in range(n + 1)]
    for s in range(1 << n):
        by_count[bin(s).count('1')].append(s)
    for size in range(1, n + 1):
        for s in by_count[size]:
            val = None
            rest = s
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                prev = best[s & ~(1 << v)]
                c = max(prev, cost_of(v, s & ~(1 << v)))
                if val is None or c < val:
                    val = c
            best[s] = val
    return best[full]


# ---------------------------------------------------------------------------
# Naive balanced 1-separation
# ---------------------------------------------------------------------------


def _branches(tree: Graph, t0: int) -> list[list[int]]:
    """Node sets of the components of tree - t0."""
    rest = tree.subgraph([t for t in tree.vertices if t != t0])
    return [sorted(c) for c in rest.components]


def naive_balanced_1_separation(td: TreeDecomposition
                                ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``treedecomp.balanced_1_separation`` by building tree - t0 and its
    components for every candidate node t0 in id order, and weighing
    each branch by a set union of its bags."""
    tree = td.tree
    if tree.n == 1:
        t0 = tree.vertices[0]
        return (t0,), (t0,), t0
    all_vertices: set[int] = set()
    for _, b in td.bags:
        all_vertices.update(b)
    for t0 in tree.vertices:
        bag0 = set(td.bag[t0])
        branches = _branches(tree, t0)
        weights = []
        for br in branches:
            w: set[int] = set()
            for t in br:
                w.update(td.bag[t])
            weights.append(len(w - bag0))
        total = len(all_vertices - bag0)
        if total == 0:
            group = branches[:len(branches) // 2] or []
            t1 = tuple(sorted({t0} | {t for br in group for t in br}))
            t2 = tuple(sorted(set(tree.vertices) - set(t1) | {t0}))
            return t1, t2, t0
        lo = (total + 2) // 3          # ceil(total/3)
        hi = (2 * total) // 3          # floor(2 total/3)
        if any(w > hi for w in weights):
            continue
        # greedy: add branches heaviest-first until reaching lo
        idx = sorted(range(len(branches)), key=lambda i: -weights[i])
        acc = 0
        group = []
        for i in idx:
            if acc >= lo:
                break
            acc += weights[i]
            group.append(i)
        if not (lo <= acc <= hi):
            continue
        side1 = {t0} | {t for i in group for t in branches[i]}
        side2 = {t0} | {t for i in range(len(branches)) if i not in group
                        for t in branches[i]}
        return tuple(sorted(side1)), tuple(sorted(side2)), t0
    raise TreeDecompositionError("no balanced 1-separation found; theorem violated")


def naive_separation_parts(td: TreeDecomposition, k: int) -> tuple[tuple[int, ...], ...]:
    """The parts of ``treedecomp.balanced_separation_sequence``: split the
    heaviest part (weight, then nodes) with
    ``naive_balanced_1_separation`` until there are k, weighing every
    part by a set union of its bags on every round."""
    parts = [tuple(td.tree.vertices)]
    while len(parts) < k:
        parts.sort(key=lambda p: (len(set().union(*(td.bag[t] for t in p))), p))
        heavy = parts.pop()
        sub_td = TreeDecomposition.build(td.tree.subgraph(heavy),
                                         {t: td.bag[t] for t in heavy})
        t1, t2, _ = naive_balanced_1_separation(sub_td)
        parts += [t1, t2]
    return tuple(sorted(parts))


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
# Isomorphism classes
# ---------------------------------------------------------------------------


def vf2_classes(graphs: list[Graph]) -> list[list[int]]:
    """Indices grouped by isomorphism class, each graph compared with
    every class representative by ``nx.is_isomorphic``.  Classes are in
    the order of their first member and members in input order."""
    classes: list[tuple[nx.Graph, list[int]]] = []
    for i, g in enumerate(graphs):
        gx = g.to_nx()
        for rep, members in classes:
            if nx.is_isomorphic(gx, rep):
                members.append(i)
                break
        else:
            classes.append((gx, [i]))
    return [members for _, members in classes]


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
                if edge_key(u, v) not in g.edge_set:
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


# ---------------------------------------------------------------------------
# Cycle classification by union-find
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnionFindAnalysis:
    """``union_find_classify``'s record: ``CycleAnalysis``'s fields with
    the end sides and flips found eagerly, and the union-find root of
    every off-cycle vertex and of the "left" and "right" end nodes (None
    for a one-sided cycle)."""

    graph: Graph
    embedding: Embedding
    cycle: tuple[int, ...]
    classification: CycleClassification
    end_side: dict[tuple[int, int], str]
    flips: frozenset[int]
    edges: frozenset[tuple[int, int]]
    roots: dict | None = None
    left_genus: int | None = None
    right_genus: int | None = None


def union_find_classify(graph: Graph, emb: Embedding, cycle,
                        outer_face: FaceWalk | None = None) -> UnionFindAnalysis:
    """``classify_cycle`` by a union-find over every edge off C.

    The end sides are read from copies of the rotations, reversed at the
    flipped vertices.  The union-find joins the off-cycle vertices and a
    "left" and a "right" end node along every edge not on C; C separates
    exactly when the two end nodes stay apart, and each side's vertices,
    edges and faces are counted by their roots."""
    if emb.graph != graph:
        raise TopologyError("classify_cycle: embedding is for a different graph")
    cyc = check_cycle(graph, cycle)
    l = len(cyc)
    ring = [edge_key(cyc[i], cyc[(i + 1) % l]) for i in range(l)]
    cyc_edges = frozenset(ring)
    negative = [emb.sig[e] < 0 for e in ring]
    one_sided = sum(negative) % 2 == 1
    flips = frozenset(cyc[i] for i in range(1, l) if sum(negative[:i]) % 2)
    side: dict[tuple[int, int], str] = {}
    for i, v in enumerate(cyc):
        order = emb.rot[v][::-1] if v in flips else emb.rot[v]
        start = order.index(cyc[i - 1])
        current = "left"
        for w in order[start + 1:] + order[:start]:
            if w == cyc[(i + 1) % l]:
                current = "right"
            else:
                side[(v, w)] = current
    if one_sided:
        cls = CycleClassification("one-sided", False, False, "none")
        return UnionFindAnalysis(graph, emb, cyc, cls, side, flips, cyc_edges)

    cset = set(cyc)
    parent: dict = {v: v for v in graph.vertices if v not in cset}
    parent["left"] = "left"
    parent["right"] = "right"

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def node(u, v):
        return side[(u, v)] if u in cset else u

    def face_root(face):
        for a, b in face.darts:
            if edge_key(a, b) not in cyc_edges:
                return find(node(a, b))
        return None

    for u, v in graph.edges:
        if (u, v) not in cyc_edges:
            a, b = find(node(u, v)), find(node(v, u))
            if a != b:
                parent[a] = b
    roots = {x: find(x) for x in parent}
    left, right = roots["left"], roots["right"]
    separating = left != right
    left_genus = right_genus = None
    contractible = False
    disk_side = "none"
    if separating:
        faces = emb.faces()
        count = {left: [0, 0, 0], right: [0, 0, 0]}
        for v in graph.vertices:
            if v not in cset and roots[v] in count:
                count[roots[v]][0] += 1
        for u, v in graph.edges:
            if (u, v) not in cyc_edges and roots[node(u, v)] in count:
                count[roots[node(u, v)]][1] += 1
        for f in faces:
            if face_root(f) in count:
                count[face_root(f)][2] += 1
        left_genus, right_genus = (0 if e == 0 else 1 - n + e - f
                                   for n, e, f in (count[left], count[right]))
        contractible = left_genus == 0 or right_genus == 0
        if contractible:
            if left_genus == 0 and right_genus == 0:
                key = outer_face.key if outer_face is not None else faces[0].key
                outer = next((f for f in faces if f.key == key), None)
                r = None if outer is None else face_root(outer)
                if outer is not None and r is None:
                    r = left if count[left][1] == 0 else right
                disk_side = "right" if r == left else "left"
            else:
                disk_side = "left" if left_genus == 0 else "right"
    cls = CycleClassification("two-sided", separating, contractible, disk_side)
    return UnionFindAnalysis(graph, emb, cyc, cls, side, flips, cyc_edges, roots,
                             left_genus, right_genus)


# ---------------------------------------------------------------------------
# Homotopy by a double cut
# ---------------------------------------------------------------------------


def double_cut_homotopy(graph: Graph, emb: Embedding, c1, c2):
    """``are_homotopic`` by cutting along C1, then along C2 lifted to
    that cut, and counting the copies of both cycles in every component
    of the second cut: the region is the genus-0 component holding
    exactly one copy of each, mapped back to the graph, or None."""
    found = _cylinder(graph, emb, c1, c2)
    if found is None:
        return None
    piece, _, origin = found
    edges = {edge_key(origin[u], origin[v]) for u, v in piece.edges
             if origin[u] != origin[v]}
    return graph.edge_subgraph(edges, extra_vertices=set(origin.values()))


def _cylinder(graph: Graph, emb: Embedding, c1: Sequence[int], c2: Sequence[int]):
    """The double cut behind ``double_cut_homotopy``: cut along C1, then along
    C2 lifted to that cut, and return the genus-0 component holding
    exactly one copy of each cycle, with the fewest faces (ties go to the
    component with the smallest vertex), as (piece, its embedding, map
    from the piece's vertices to the graph's); None when there is none."""
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
    cut2 = classify_cycle(cut1.graph, cut1.embedding, lifted).cut

    best = None
    for comp in cut2.graph.components:
        piece = cut2.graph.subgraph(comp)
        if _count_copies(piece, cut2, cut1) == 1 and _count_copies2(piece, cut2) == 1:
            pemb = induced_embedding(cut2.embedding, piece)
            if pemb.euler_genus() == 0 and (best is None
                                            or len(pemb.faces()) < len(best[1].faces())):
                best = (piece, pemb)
    if best is None:
        return None
    piece, pemb = best
    return piece, pemb, {v: cut1.origin[cut2.origin[v]] for v in piece.vertices}


def _count_copies(piece: Graph, cut2: CutResult, cut1: CutResult) -> int:
    """Copies of the first cycle present in a component of the second cut."""
    count = 0
    for copy in cut1.copies:
        # a copy of C1 may itself have been duplicated by the second cut;
        # count the images of this copy's cycle that survive in the piece
        count += _count_cycle_images(piece, cut2, copy)
    return count


def _count_cycle_images(piece: Graph, cut: CutResult, cycle_ids: tuple[int, ...]) -> int:
    l = len(cycle_ids)
    candidates = [[] for _ in range(l)]
    for i, v in enumerate(cycle_ids):
        for w in piece.vertices:
            if cut.origin[w] == v:
                candidates[i].append(w)
    total = 0
    for combo in itertools.product(*candidates):
        if len(set(combo)) != l:
            continue
        ok = all(edge_key(combo[i], combo[(i + 1) % l]) in piece.edge_set for i in range(l))
        if ok:
            total += 1
    return total


def _count_copies2(piece: Graph, cut2: CutResult) -> int:
    count = 0
    for copy in cut2.copies:
        if all(v in piece.vertices for v in copy):
            l = len(copy)
            if all(edge_key(copy[i], copy[(i + 1) % l]) in piece.edge_set for i in range(l)):
                count += 1
    return count


def _lift_cycle(cut: CutResult, analysis: CycleAnalysis,
                cyc2: tuple[int, ...]) -> tuple[int, ...] | None:
    """Express the second cycle in the cut graph of the first.

    Vertices of C2 off the first cycle map to themselves.  Ends touching
    the first cycle follow their recorded side; the shared path's run of
    vertices must be entered and left on the same side, otherwise the
    cycles cross and None is returned.
    """
    cset = set(analysis.cycle)
    l = len(cyc2)
    # determine the side for each C2-vertex lying on C1
    sides: dict[int, str] = {}
    for i, v in enumerate(cyc2):
        if v not in cset:
            continue
        for j in (i - 1, i + 1):
            w = cyc2[j % l]
            if w not in cset or edge_key(v, w) not in analysis.graph.edge_set:
                continue
            if edge_key(v, w) in analysis.edges:
                continue  # shared edge: side comes from elsewhere
            # non-shared C2-edge end at v
            s = analysis.end_side.get((v, w))
            if s is not None:
                if v in sides and sides[v] != s:
                    return None
                sides[v] = s
        # C2-edges from v leaving C1 entirely
        for j in (i - 1, i + 1):
            w = cyc2[j % l]
            if w in cset:
                continue
            s = analysis.end_side.get((v, w))
            if s is not None:
                if v in sides and sides[v] != s:
                    return None
                sides[v] = s
    # propagate one side across the shared run (shared edges have no ends)
    decided = set(sides.values())
    if len(decided) > 1:
        return None
    side = decided.pop() if decided else "left"
    ids = cut.left_ids if side == "left" else cut.right_ids
    lifted = tuple(ids.get(v, v) if v in cset else v for v in cyc2)
    # validate the lift is a cycle of the cut graph
    try:
        check_cycle(cut.graph, lifted)
    except EmbeddingError:
        return None
    return lifted


# ---------------------------------------------------------------------------
# Longest well-nested chain by exhaustive search
# ---------------------------------------------------------------------------


def _pieces_agree(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, FaceWalk) and isinstance(b, FaceWalk):
        return a.key == b.key
    return False


def _one_discipline(kinds: list[WellNestedKind]) -> bool:
    """All free, all pinched on one common piece, or all pinched on two
    common pieces."""
    if all(k.tag == "free" for k in kinds):
        return True
    if all(k.tag == "pinched-one" for k in kinds):
        return all(_pieces_agree(k.pieces[0], kinds[0].pieces[0]) for k in kinds)
    if all(k.tag == "pinched-two" for k in kinds):
        first = kinds[0].pieces
        return all(_pieces_agree(k.pieces[0], first[0]) and _pieces_agree(k.pieces[1], first[1])
                   for k in kinds)
    return False


def exhaustive_chain(graph: Graph, emb: Embedding, budget: int = 100_000,
                     outer_face: FaceWalk | None = None) -> ChainResult:
    """``longest_well_nested_chain`` by a depth-first walk of every path
    of the nesting DAG, from each start in turn, taking successors in
    index order and extending a chain only while its kinds stay uniform.
    The first longest chain found is kept: the lexicographically least
    index sequence of the best length.  A cycle nests in another when its
    vertices and edges lie in the sets of the other's Int side; the kinds
    are read as the package reads them."""
    cycles, exact = enumerate_cycles(graph, budget)
    analyses = [(c, a) for c in cycles
                if (a := classify_cycle(graph, emb, c, outer_face=outer_face)).is_contractible]
    n = len(analyses)
    interiors = [(a.side_vertices(a.int_side()), a.side_edges(a.int_side())) for _, a in analyses]
    nested_in = {}
    for i, j in itertools.permutations(range(n), 2):
        if interiors[j][0].issuperset(analyses[i][0]) and analyses[i][1].edges <= interiors[j][1]:
            kind = _classify_pinches(emb, analyses[j][0], analyses[i][0])
            if kind is not None:
                nested_in[(i, j)] = kind
    best = ([0], []) if n else ([], [])

    def extend(chain, kinds):
        nonlocal best
        if len(chain) > len(best[0]):
            best = (list(chain), list(kinds))
        for (i, j), kind in nested_in.items():
            if i == chain[-1] and _one_discipline(kinds + [kind]):
                extend(chain + [j], kinds + [kind])

    for start in range(n):
        extend([start], [])
    kinds = tuple(best[1])
    discipline = "free" if not kinds or kinds[0].tag == "free" else \
        "pinched on " + " and ".join(kinds[0].piece_names())
    return ChainResult(tuple(analyses[i][0] for i in best[0]), kinds, discipline, exact)


# ---------------------------------------------------------------------------
# Torus grid topology
# ---------------------------------------------------------------------------


def torus_winding(cycle, rows: int, cols: int) -> tuple[int, int]:
    """Winding numbers of a cycle of the rows x cols torus grid (vertex
    ``cols * i + j`` at row i, column j; rows and cols >= 3), from the
    total row and column displacement of its lift to the plane."""
    di = dj = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        (ia, ja), (ib, jb) = divmod(a, cols), divmod(b, cols)
        di += (ib - ia + 1) % rows - 1
        dj += (jb - ja + 1) % cols - 1
    return di // rows, dj // cols


def rectangle_radius(h: int, w: int) -> int:
    """Face layers inside the boundary of an h x w block of unit squares
    of a planar grid: each layer peels one ring of squares.  A cycle
    bounding a single face has no faces strictly inside it, so radius 0."""
    return 0 if h == w == 1 else math.ceil(min(h, w) / 2)
