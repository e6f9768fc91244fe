"""Tree decompositions, exact treewidth, and balanced 1-separations.

The balanced machinery follows the classic balanced-separator theorem:
every tree decomposition has a node t0 and a split of the tree into two
subtrees meeting only at t0 whose bag unions (outside the t0 bag) both
hold between a third and two thirds of the remaining vertices.  Splits
iterate into a 1-separation sequence: k parts with pairwise weight ratio
at most 3 and per-part boundary at most floor(log_{4/3} 3k) nodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .graph import Graph


class TreeDecompositionError(ValueError):
    pass


@dataclass(frozen=True)
class TreeDecomposition:
    tree: Graph
    bags: tuple[tuple[int, tuple[int, ...]], ...]  # (tree node, sorted bag)

    @staticmethod
    def build(tree: Graph, bags) -> "TreeDecomposition":
        bag_map = {int(t): tuple(sorted(set(b))) for t, b in dict(bags).items()}
        if set(bag_map) != set(tree.vertices):
            raise TreeDecompositionError("bags must be indexed exactly by tree nodes")
        return TreeDecomposition(tree, tuple(sorted(bag_map.items())))

    @cached_property
    def bag(self) -> dict[int, tuple[int, ...]]:
        return dict(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for _, b in self.bags), default=1) - 1

    @cached_property
    def _masks(self) -> dict[int, int]:
        """Each node's bag as a bit mask over the sorted union of the bags."""
        index = {v: i for i, v in enumerate(sorted({v for _, b in self.bags for v in b}))}
        return {t: sum(1 << index[v] for v in b) for t, b in self.bags}

    def weight(self, nodes) -> int:
        """Number of distinct vertices in the bags of the given tree nodes."""
        masks = self._masks
        out = 0
        for t in nodes:
            out |= masks[t]
        return out.bit_count()

    def to_json_obj(self) -> dict:
        return {"tree_edges": [list(e) for e in self.tree.edges],
                "bags": {str(t): list(b) for t, b in self.bags}}

    @staticmethod
    def from_json_obj(obj: dict) -> "TreeDecomposition":
        if not isinstance(obj, dict) or not isinstance(obj.get("bags"), dict):
            raise TreeDecompositionError("tree decomposition json: 'bags' must be an object")
        if not isinstance(obj.get("tree_edges"), list):
            raise TreeDecompositionError("tree decomposition json: 'tree_edges' must be a list")
        try:
            bags = {int(t): [int(v) for v in b] for t, b in obj["bags"].items()}
        except (TypeError, ValueError):
            raise TreeDecompositionError("tree decomposition json: 'bags' must map "
                                         "tree nodes to lists of vertices") from None
        try:
            edges = [(int(s), int(t)) for s, t in obj["tree_edges"]]
        except (TypeError, ValueError):
            raise TreeDecompositionError("tree decomposition json: 'tree_edges' must be "
                                         "a list of [s, t] pairs of tree nodes") from None
        tree = Graph.build(bags.keys(), edges)
        return TreeDecomposition.build(tree, bags)


def validate(graph: Graph, td: TreeDecomposition) -> tuple[bool, str | None]:
    """Check the three tree-decomposition axioms; on failure name the
    violated one."""
    if td.tree.n and not td.tree.is_connected():
        return False, "tree is not connected"
    if td.tree.m != max(td.tree.n - 1, 0):
        return False, "tree has a cycle"
    covered = set()
    for _, b in td.bags:
        covered.update(b)
    if covered != set(graph.vertices):
        return False, "axiom 1: bag union does not cover the vertex set"
    for u, v in graph.edges:
        if not any(u in b and v in b for _, b in td.bags):
            return False, f"axiom 2: edge ({u}, {v}) is in no bag"
    # axiom 3 (running intersection): the nodes holding each vertex form a subtree
    for x in covered:
        holders = [t for t, b in td.bags if x in b]
        sub = td.tree.subgraph(holders)
        if not sub.is_connected():
            return False, f"axiom 3: bags containing {x} are not connected in the tree"
    return True, None


# ---------------------------------------------------------------------------
# Computing decompositions
# ---------------------------------------------------------------------------


def _fill_neighbors(adj: dict[int, set[int]], v: int) -> int:
    nbrs = adj[v]
    missing = 0
    for a, b in itertools.combinations(nbrs, 2):
        if b not in adj[a]:
            missing += 1
    return missing


def _eliminate(adj: dict[int, set[int]], v: int):
    nbrs = adj.pop(v)
    for a in nbrs:
        adj[a] |= nbrs - {a}
        adj[a].discard(v)


def _decomposition_from_order(graph: Graph, order: list[int]) -> TreeDecomposition:
    """Standard construction: bag(v) = v plus its fill-graph neighbors at
    elimination time; bag(v) hangs off the bag of its first-eliminated
    fill neighbor."""
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    position = {v: i for i, v in enumerate(order)}
    bags: dict[int, tuple[int, ...]] = {}
    parents: dict[int, int] = {}
    for i, v in enumerate(order):
        nbrs = set(adj[v])
        bags[i] = tuple(sorted(nbrs | {v}))
        if nbrs:
            parent = min(nbrs, key=lambda w: position[w])
            parents[i] = position[parent]
        _eliminate(adj, v)
    edges = [(child, parent) for child, parent in parents.items()]
    if not bags:
        bags[0] = ()
    # connect any forest pieces (disconnected graphs) arbitrarily in order
    tree = Graph.build(bags.keys(), edges)
    comps = tree.components()
    extra = []
    roots = sorted(min(c) for c in comps)
    for a, b in zip(roots, roots[1:]):
        extra.append((a, b))
    tree = Graph.build(bags.keys(), list(tree.edges) + extra)
    return TreeDecomposition.build(tree, bags)


def min_fill_order(graph: Graph) -> list[int]:
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    order = []
    while adj:
        v = min(adj, key=lambda u: (_fill_neighbors(adj, u), len(adj[u]), u))
        order.append(v)
        _eliminate(adj, v)
    return order


def _minor_min_width(graph: Graph) -> int:
    """Treewidth lower bound (minor-min-width): a minor's minimum degree
    is at most the treewidth, so repeatedly take a minimum-degree vertex,
    record its degree and contract it into its least-degree neighbor."""
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    low = 0
    while len(adj) > 1:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        low = max(low, len(adj[v]))
        if not adj[v]:
            del adj[v]
            continue
        into = min(adj[v], key=lambda u: (len(adj[u]), u))
        for w in adj.pop(v):
            adj[w].discard(v)
            if w != into:
                adj[w].add(into)
                adj[into].add(w)
    return low


def _exact_treewidth_order(graph: Graph) -> list[int]:
    """Exact elimination order by the decision form of the
    Bodlaender-Fomin-Koster-Kratsch-Thilikos recurrence (TWDP).

    Eliminating v after the set S costs the number of vertices outside
    S + v that v reaches through S.  For each k from the minor-min-width
    lower bound up to one below the min-fill width, grow the eliminated
    sets level by level, keeping a set only when its last step costs at
    most k.  Once at most k + 1 vertices remain they fit in any order,
    so the first k that reaches that level is the treewidth; when none
    does, the min-fill order is exact.
    """
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

    def order_within(k: int) -> list[int] | None:
        # every kept set maps to the vertex eliminated last in it
        last = {0: -1}
        level = [0]
        for _ in range(n - k - 1):
            grown = []
            for s in level:
                rest = full & ~s
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    t = s | bit
                    if t in last:
                        continue
                    v = bit.bit_length() - 1
                    if cost_of(v, s) <= k:
                        last[t] = v
                        grown.append(t)
            if not grown:
                return None
            level = grown
        s = level[0]
        tail = [v for v in range(n) if not s >> v & 1]
        head = []
        while s:
            v = last[s]
            head.append(v)
            s &= ~(1 << v)
        return head[::-1] + tail

    upper = min_fill_order(graph)
    ub, s = 0, 0
    for v in upper:
        ub = max(ub, cost_of(pos[v], s))
        s |= 1 << pos[v]
    for k in range(_minor_min_width(graph), ub):
        order = order_within(k)
        if order is not None:
            return [vertices[i] for i in order]
    return upper


# Measured at the cap (2-core VM, CPython 3.11.7): the 5x5 grid takes 7.4 s
# at 123 MB peak RSS, seeded random graphs with 20-25 vertices at most 5.3 s.
EXACT_VERTEX_CAP = 25


def compute_tree_decomposition(graph: Graph, mode: str = "exact") -> tuple[TreeDecomposition, bool]:
    """A valid tree decomposition; (decomposition, is_exact).

    Exact mode minimizes width by the decision-form elimination DP
    (``_exact_treewidth_order``) and is capped at ``EXACT_VERTEX_CAP``
    vertices; beyond the cap (or in heuristic mode) a min-fill-in
    ordering is used and only validity is guaranteed.
    """
    if mode not in ("exact", "heuristic"):
        raise TreeDecompositionError(f"unknown mode {mode!r}")
    if graph.n == 0:
        td = TreeDecomposition.build(Graph.build([0], []), {0: ()})
        return td, True
    if mode == "exact" and graph.n <= EXACT_VERTEX_CAP:
        order = _exact_treewidth_order(graph)
        exact = True
    else:
        order = min_fill_order(graph)
        exact = False
    td = _decomposition_from_order(graph, order)
    ok, why = validate(graph, td)
    if not ok:
        raise TreeDecompositionError(f"constructed decomposition failed validation: {why}")
    return td, exact


# ---------------------------------------------------------------------------
# Balanced separations
# ---------------------------------------------------------------------------


def balanced_1_separation(td: TreeDecomposition) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Subtrees (T1, T2) overlapping exactly in a node t0 with both bag
    unions minus the t0 bag weighing in [1/3, 2/3] of |V(H) - V_t0|.

    One pass over each tree component, rooted at its least node, gives
    every node the bit mask of the vertices in its subtree's bags
    (bottom-up) and of those in the rest of its component (top-down,
    from the parent's with prefix and suffix ORs over the siblings).
    The branches of tree - t0 are then t0's child subtrees, the rest of
    t0's component and the other components, and a branch weighs the
    popcount of its mask outside the t0 bag.  Candidate nodes are
    scanned in id order, branches ordered by their least node and
    grouped heaviest-first by a stable greedy; node lists are built
    only for the chosen node.  The result equals that of building
    tree - t0 and its components for every candidate in turn.
    Deterministic; the balanced separator theorem guarantees a feasible
    node exists.
    """
    tree = td.tree
    if tree.n == 1:
        t0 = tree.vertices[0]
        return (t0,), (t0,), t0
    adj = tree._adj
    masks = td._masks
    # root each component at its least node; parents precede children in order
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {}
    root: dict[int, int] = {}
    order: list[int] = []
    roots: list[int] = []
    for r in tree.vertices:
        if r in root:
            continue
        roots.append(r)
        root[r] = r
        i = len(order)
        order.append(r)
        while i < len(order):
            t = order[i]
            i += 1
            children[t] = [c for c in adj[t] if c not in root]
            for c in children[t]:
                root[c] = r
                parent[c] = t
            order += children[t]
    if tree.m != tree.n - len(roots):
        raise TreeDecompositionError("decomposition tree has a cycle")
    # below[t]: bags of t's subtree; least[t]: its least node
    below = dict(masks)
    least = {t: t for t in order}
    for t in reversed(order):
        p = parent.get(t)
        if p is not None:
            below[p] |= below[t]
            least[p] = min(least[p], least[t])
    # above[t]: bags of t's component outside t's subtree
    above = {r: 0 for r in roots}
    for t in order:
        kids = children[t]
        after = [0] * (len(kids) + 1)
        for j in range(len(kids) - 1, -1, -1):
            after[j] = after[j + 1] | below[kids[j]]
        before = above[t] | masks[t]
        for j, c in enumerate(kids):
            above[c] = before | after[j + 1]
            before |= below[c]
    everything = 0
    for r in roots:
        everything |= below[r]
    for t0 in tree.vertices:
        # each branch of tree - t0 as (least node, a node of it, bag mask)
        branches = [(least[c], c, below[c]) for c in children[t0]]
        if t0 in parent:
            branches.append((root[t0], parent[t0], above[t0]))
        branches += [(r, r, below[r]) for r in roots if r != root[t0]]
        branches.sort()
        outside = ~masks[t0]
        weights = [(m & outside).bit_count() for _, _, m in branches]
        total = (everything & outside).bit_count()
        if total == 0:
            group = list(range(len(branches) // 2))
        else:
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
        # the nodes of the grouped branches, reached from one node of each
        side1 = {t0} | {branches[i][1] for i in group}
        stack = [branches[i][1] for i in group]
        while stack:
            for w in adj[stack.pop()]:
                if w not in side1:
                    side1.add(w)
                    stack.append(w)
        side2 = set(tree.vertices) - side1 | {t0}
        return tuple(sorted(side1)), tuple(sorted(side2)), t0
    raise TreeDecompositionError("no balanced 1-separation found; theorem violated")


@dataclass(frozen=True)
class SeparationSequence:
    """Subtrees T_1..T_k covering the decomposition tree, pairwise sharing
    at most one node, with balanced bag weights."""

    td: TreeDecomposition
    parts: tuple[tuple[int, ...], ...]

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(self.td.weight(p) for p in self.parts)

    def boundary_sizes(self) -> tuple[int, ...]:
        out = []
        for i, p in enumerate(self.parts):
            others = set()
            for j, q in enumerate(self.parts):
                if j != i:
                    others.update(q)
            out.append(len(set(p) & others))
        return tuple(out)

    def pairwise_intersections_ok(self) -> bool:
        return all(len(set(a) & set(b)) <= 1
                   for a, b in itertools.combinations(self.parts, 2))


def balanced_separation_sequence(graph: Graph, td: TreeDecomposition,
                                 k: int) -> SeparationSequence:
    """Split the decomposition tree into k parts with pairwise weight
    ratio at most 3 and per-part boundary at most floor(log_{4/3} 3k).

    Requires every bag to hold at most |V(G)|/(4k) vertices.  Follows the
    inductive construction: repeatedly split the heaviest part with a
    balanced 1-separation.
    """
    if k < 1:
        raise TreeDecompositionError("k must be at least 1")
    nv = graph.n
    for t, b in td.bags:
        if len(b) * 4 * k > nv:
            raise TreeDecompositionError(
                f"hypothesis violated: bag {t} has {len(b)} > |V|/(4k) "
                f"= {nv}/(4*{k}) vertices")
    # each part with its weight, taken once when the part is made
    parts = [(td.weight(td.tree.vertices), td.tree.vertices)]
    while len(parts) < k:
        parts.sort()
        _, heavy = parts.pop()
        sub_tree = td.tree.subgraph(heavy)
        sub_td = TreeDecomposition.build(sub_tree, {t: td.bag[t] for t in heavy})
        t1, t2, _ = balanced_1_separation(sub_td)
        parts += [(td.weight(t1), t1), (td.weight(t2), t2)]
    seq = SeparationSequence(td, tuple(sorted(p for _, p in parts)))
    limit = math.floor(math.log(3 * k) / math.log(4 / 3))
    weights = seq.weights
    if not all(wa <= 3 * wb for wa in weights for wb in weights):
        raise TreeDecompositionError("weight ratio property violated")
    if not all(b <= limit for b in seq.boundary_sizes()):
        raise TreeDecompositionError("boundary size property violated")
    if not seq.pairwise_intersections_ok():
        raise TreeDecompositionError("parts share more than one node")
    return seq
