"""Exact minimum Euler genus by pruned exhaustive search.

The search space is the product of rotation systems with the cotree
signature patterns of a fixed spanning tree (every embedding is
equivalent to one with positive tree signatures, and the all-positive
pattern covers exactly the orientable classes).  Rotations are assigned
vertex by vertex in BFS order; the rotation of the start vertex is only
enumerated up to reversal, which quotients the global mirror symmetry.

Faces are built incrementally, face by face as in G. Brinkmann, "A
practical algorithm for the computation of the genus" (Ars Math.
Contemp., 2022).  A face is a pair of orbits of the successor
permutation on (dart, sense) states, and the successor of a state is
fixed once the vertex its dart enters has a rotation.  Placing a vertex
of degree d therefore links 2d states: each link closes an open walk
into an orbit or joins two walks.  Walk ends and lengths live in flat
arrays and are undone in reverse on backtrack, so a child costs O(d)
rather than a re-trace of all 4m states.

A partial assignment is pruned by a genus lower bound: the faces
already closed plus (open traversals // min_face) can only overestimate
the final face count, where min_face is a lower bound on the length of
every face.  It is 3 in a simple graph with at least two edges, and the
girth when every vertex has degree at least 2: a facial walk turns
straight back only at a degree-1 vertex, so otherwise every face
contains a cycle.

The pruning is verified against an unpruned oracle in the test suite on
every connected graph with at most eight edges.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

from .graph import Edge, Graph, GraphError, blocks, edge_key
from .embedding import Embedding


DEFAULT_BUDGET = 5_000_000


class BudgetError(ValueError):
    """SURFACE_MINORS_BUDGET is set but is not a positive integer."""


def default_budget() -> int:
    """The search budget from SURFACE_MINORS_BUDGET, else DEFAULT_BUDGET."""
    env = os.environ.get("SURFACE_MINORS_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value <= 0:
        raise BudgetError(f"SURFACE_MINORS_BUDGET must be a positive integer, got {env!r}")
    return value


class BudgetExceeded(Exception):
    """Search stopped before the space was exhausted."""

    def __init__(self, message: str, explored: int):
        super().__init__(message)
        self.explored = explored


class SearchCheckError(RuntimeError):
    """A search result failed its own re-verification (a program bug,
    raised explicitly so that the check also runs under ``python -O``)."""


@dataclass(frozen=True)
class Surface:
    """A surface named by Euler genus and orientability."""

    genus: int
    orientable: bool

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("surface genus must be nonnegative")
        if self.orientable and self.genus % 2:
            raise ValueError("orientable surfaces have even Euler genus")
        if not self.orientable and self.genus == 0:
            raise ValueError("no nonorientable surface has Euler genus 0")

    @staticmethod
    def parse(text: str) -> "Surface":
        g, _, o = text.partition(":")
        if o not in ("orientable", "nonorientable"):
            raise ValueError(f"surface must be '<genus>:orientable|nonorientable', got {text!r}")
        return Surface(int(g), o == "orientable")

    def __str__(self) -> str:
        return f"{self.genus}:{'orientable' if self.orientable else 'nonorientable'}"


@dataclass(frozen=True)
class GenusProfile:
    """Minimum Euler genus over orientable and nonorientable embeddings.

    ``nonorientable_min`` is None for forests (a forest has no
    nonorientable embedding at all).  Witness embeddings re-evaluate to
    the claimed genus.  ``exact`` is False when the search budget ran out,
    in which case the minima are upper bounds and ``genus_lower_bound``
    is what pruning established.
    """

    orientable_min: int
    nonorientable_min: int | None
    orientable_witness: Embedding | None
    nonorientable_witness: Embedding | None
    exact: bool = True
    genus_lower_bound: int = 0
    explored: int = 0

    @property
    def overall_min(self) -> int:
        if self.nonorientable_min is None:
            return self.orientable_min
        return min(self.orientable_min, self.nonorientable_min)


# ---------------------------------------------------------------------------
# Core search
# ---------------------------------------------------------------------------


class _SearchSpace:
    """Dart tables and rotation lists for one graph, reused across all
    signature patterns and embeddings tried.

    Dart ``2i`` runs along edge i from its smaller to its larger end, dart
    ``2i + 1`` back.  A traversal state ``2d + o`` is dart d walked in
    sense o (0 = positive); there are 4m states.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.edges = graph.edges
        self.m = graph.m
        self.n = graph.n
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        # BFS vertex order from the smallest vertex (graph is connected)
        order = []
        seen = set()
        for root in graph.vertices:
            if root in seen:
                continue
            seen.add(root)
            queue = [root]
            while queue:
                order.extend(queue)
                nxt = []
                for u in queue:
                    for w in graph.neighbors(u):
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                queue = nxt
        self.vertex_order = order
        self.out_darts = {v: tuple(self._dart(v, w) for w in graph.neighbors(v))
                          for v in graph.vertices}
        self.rotations = {v: self._rotations_at(v, fixed=(i == 0))
                          for i, v in enumerate(order)}
        # a lower bound on every face length (see the module docstring)
        if self.m < 2:
            self.min_face = 2
        elif all(len(ds) >= 2 for ds in self.out_darts.values()):
            self.min_face = graph.girth()
        else:
            self.min_face = 3

    def _dart(self, v: int, w: int) -> int:
        e = edge_key(v, w)
        i = self.edge_index[e]
        return 2 * i if e[0] == v else 2 * i + 1

    def _rotations_at(self, v: int, fixed: bool) -> list[tuple[int, ...]]:
        """Cyclic orders at v as dart tuples; with ``fixed`` only one of
        each mirror pair is kept (start-vertex symmetry reduction)."""
        ds = self.out_darts[v]
        if len(ds) <= 2:
            return [ds]
        first, rest = ds[0], ds[1:]
        out = []
        for p in itertools.permutations(rest):
            rot = (first,) + p
            if fixed:
                mirror = (first,) + tuple(reversed(p))
                if mirror < rot:
                    continue
            out.append(rot)
        return out

    def choices(self, v: int, neg: list[bool]) -> tuple[tuple[tuple[int, ...], tuple], ...]:
        """Each rotation at v with the (state, successor) pairs it fixes
        under the edge signs ``neg``: a state entering v along dart d
        continues on the rotation neighbour of the reverse dart, in the
        sense flipped by the sign of d's edge."""
        out = []
        for rot in self.rotations[v]:
            k = len(rot)
            pairs = []
            for j, r in enumerate(rot):
                d = r ^ 1
                flip = neg[r >> 1]
                for o in (0, 1):
                    o2 = o ^ flip
                    d2 = rot[(j + 1) % k] if o2 == 0 else rot[j - 1]
                    pairs.append((2 * d + o, 2 * d2 + o2))
            out.append((rot, tuple(pairs)))
        return tuple(out)


class _FaceTracker:
    """Facial orbits of a partial successor permutation, kept up to date
    link by link.

    Linking state s to its successor t fixes one arc of the permutation,
    so the fixed arcs always form closed orbits plus disjoint open walks.
    ``start_of[e]`` is the first state of the open walk ending at e;
    ``end_of[s]`` and ``length[s]`` are the last state and the number of
    states of the open walk starting at s.  Only entries at walk ends are
    kept current; the stale ones are exactly what undo needs.
    """

    __slots__ = ("start_of", "end_of", "length", "orbits", "used")

    def __init__(self, nstates: int):
        self.start_of = list(range(nstates))
        self.end_of = list(range(nstates))
        self.length = [1] * nstates
        self.orbits = 0  # closed orbits
        self.used = 0    # states on closed orbits

    def link(self, pairs: tuple[tuple[int, int], ...]) -> None:
        """Fix succ(s) = t for each pair; s must end an open walk and t
        start one.  A link within one walk closes it into an orbit."""
        start_of, end_of, length = self.start_of, self.end_of, self.length
        closed = closed_len = 0
        for s, t in pairs:
            a = start_of[s]
            if a == t:
                closed += 1
                closed_len += length[t]
            else:
                b = end_of[t]
                end_of[a] = b
                start_of[b] = a
                length[a] += length[t]
        self.orbits += closed
        self.used += closed_len

    def unlink(self, pairs: tuple[tuple[int, int], ...]) -> None:
        """Undo the matching ``link`` call; calls must nest."""
        start_of, end_of, length = self.start_of, self.end_of, self.length
        closed = closed_len = 0
        for s, t in reversed(pairs):
            a = start_of[s]
            if a == t:
                closed += 1
                closed_len += length[t]
            else:
                b = end_of[t]
                end_of[a] = s
                start_of[b] = t
                length[a] -= length[t]
        self.orbits -= closed
        self.used -= closed_len


def _search_pattern(space: _SearchSpace, signature: dict[Edge, int],
                    best_start: int, counter: list[int], budget: int) -> tuple[int, dict | None]:
    """Branch and bound over rotations for one fixed signature pattern.
    Returns (best genus found, rotation dict of a witness) with genus
    taken below ``best_start`` only.

    Placing the rotation at a vertex links the successor of every state
    entering it, so each child costs O(deg v), not a re-trace of all 4m
    states.
    """
    neg = [signature[e] < 0 for e in space.edges]
    order = space.vertex_order
    n = len(order)
    m = space.m
    base = 2 - space.n + m  # Euler genus = base - faces
    min_face = space.min_face
    faces = _FaceTracker(4 * m)
    link, unlink = faces.link, faces.unlink
    options_at: list[tuple | None] = [None] * n  # per vertex, built on first visit
    best = best_start
    best_rot: dict | None = None
    chosen: list[tuple[int, ...]] = [()] * n

    def rec(idx: int):
        nonlocal best, best_rot
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceeded("rotation search budget exhausted", counter[0])
        if idx == n:
            if faces.orbits % 2:
                raise SearchCheckError(f"odd number of facial orbits ({faces.orbits})")
            genus = base - faces.orbits // 2
            if genus < best:
                best = genus
                best_rot = dict(zip(order, chosen))
            return
        options = options_at[idx]
        if options is None:
            options = options_at[idx] = space.choices(order[idx], neg)
        for rot, pairs in options:
            link(pairs)
            # each face is two orbits, one per sense; the open traversals
            # can still form at most (open length) // min_face faces
            if idx == 0 or base - (faces.orbits // 2
                                   + (2 * m - faces.used // 2) // min_face) < best:
                chosen[idx] = rot
                rec(idx + 1)
            unlink(pairs)

    rec(0)
    return best, best_rot


def _rotation_dict(space: _SearchSpace, rot: dict[int, tuple[int, ...]]) -> dict[int, list[int]]:
    heads = {}
    for i, (u, v) in enumerate(space.edges):
        heads[2 * i] = v
        heads[2 * i + 1] = u
    return {v: [heads[d] for d in ds] for v, ds in rot.items()}


def min_euler_genus(graph: Graph, budget: int | None = None) -> GenusProfile:
    """Exact minimum Euler genus over orientable and over nonorientable
    embeddings of a connected graph, with witnesses.

    Runs branch-and-bound over rotations inside an exhaustive loop over
    cotree signature patterns.  Exceeding the budget yields an inexact
    profile (never a silent guess).
    """
    if not graph.is_connected():
        raise GraphError("min_euler_genus: graph must be connected "
                         "(use embeddable_in for the combination rule)")
    if budget is None:
        budget = default_budget()
    if graph.m == 0:  # a single vertex: one face, the sphere
        emb = Embedding.build(graph)
        return GenusProfile(0, None, emb, None)
    space = _SearchSpace(graph)
    tree = set(graph.spanning_tree())
    cotree = [e for e in graph.edges if e not in tree]

    counter = [0]
    orient_best = None
    orient_rot = None
    nonor_best = None
    nonor_rot = None
    nonor_sig = None
    exact = True

    patterns = sorted(itertools.product((1, -1), repeat=len(cotree)),
                      key=lambda p: sum(1 for s in p if s < 0))
    try:
        for pattern in patterns:
            signature = {e: 1 for e in graph.edges}
            for e, s in zip(cotree, pattern):
                signature[e] = s
            orientable = all(s > 0 for s in pattern)
            start = (orient_best if orientable else nonor_best)
            cap = 2 * (len(cotree) + 1) + 2  # any embedding beats this
            found, rot = _search_pattern(space, signature,
                                         start if start is not None else cap,
                                         counter, budget)
            if rot is not None:
                if orientable:
                    orient_best, orient_rot = found, rot
                else:
                    nonor_best, nonor_rot, nonor_sig = found, rot, signature
    except BudgetExceeded:
        exact = False

    if orient_best is None:
        # all-positive pattern always yields some embedding unless the
        # budget died before finishing it; fall back to the default
        emb = Embedding.build(graph)
        orient_best = emb.euler_genus()
        orient_wit = emb
        exact = False
    else:
        orient_wit = Embedding.build(graph, _rotation_dict(space, orient_rot))

    nonor_wit = None
    if nonor_best is not None:
        nonor_wit = Embedding.build(graph, _rotation_dict(space, nonor_rot),
                                    {e: s for e, s in nonor_sig.items()})
    elif cotree and exact:
        raise SearchCheckError("nonorientable pattern sweep found no embedding")

    profile = GenusProfile(
        orientable_min=orient_best,
        nonorientable_min=nonor_best,
        orientable_witness=orient_wit,
        nonorientable_witness=nonor_wit,
        exact=exact,
        explored=counter[0],
    )
    if profile.orientable_min % 2:
        raise SearchCheckError("orientable Euler genus must be even")
    _check_witnesses(profile)
    return profile


def _check_witnesses(profile: GenusProfile) -> None:
    """Re-evaluate both witnesses against the claimed minima."""
    wit = profile.orientable_witness
    if not wit.is_orientable() or wit.euler_genus() != profile.orientable_min:
        raise SearchCheckError(f"orientable witness has Euler genus {wit.euler_genus()}, "
                               f"claimed {profile.orientable_min}")
    wit = profile.nonorientable_witness
    if wit is not None and (wit.is_orientable()
                            or wit.euler_genus() != profile.nonorientable_min):
        raise SearchCheckError(f"nonorientable witness has Euler genus {wit.euler_genus()} "
                               f"(orientable: {wit.is_orientable()}), "
                               f"claimed {profile.nonorientable_min}")


def _merge_at_cutvertices(graph: Graph, parts: list[Embedding]) -> Embedding:
    """Assemble an embedding of a connected graph from embeddings of its
    blocks: rotations at a shared cutvertex concatenate (each block's
    rotation stays contiguous), so the genera add."""
    remaining = list(parts)
    current = remaining.pop(0)
    rot = {v: list(r) for v, r in current.rotation}
    sig = dict(current.signature)
    covered = set(current.graph.vertices)
    while remaining:
        i = next(i for i, p in enumerate(remaining)
                 if covered & set(p.graph.vertices))
        part = remaining.pop(i)
        for v, r in part.rotation:
            if v in rot:
                rot[v] = rot[v] + list(r)
            else:
                rot[v] = list(r)
        sig.update(part.signature)
        covered |= set(part.graph.vertices)
    for v in graph.vertices:
        rot.setdefault(v, [])
    return Embedding.build(graph, rot, sig)


def profile_via_blocks(graph: Graph, budget: int | None = None) -> GenusProfile:
    """Genus profile of a connected graph assembled from its blocks.

    Orientable minima add across blocks; the nonorientable minimum picks,
    for each block, the cheaper of its two minima, forcing at least one
    nonorientable choice.  Witnesses are merged block witnesses and
    re-verify by the Euler formula.
    """
    if not graph.is_connected():
        raise GraphError("profile_via_blocks: graph must be connected")
    blks, _ = blocks(graph)
    if len(blks) <= 1:
        return min_euler_genus(graph, budget)
    profs = [cached_profile(b, budget) for b in blks]
    orient = sum(p.orientable_min for p in profs)
    orient_wit = _merge_at_cutvertices(graph, [p.orientable_witness for p in profs])

    nonor = None
    nonor_wit = None
    with_nonor = [i for i, p in enumerate(profs) if p.nonorientable_min is not None]
    if with_nonor:
        base = [min(p.orientable_min,
                    p.nonorientable_min if p.nonorientable_min is not None else p.orientable_min)
                for p in profs]
        choice = [p.nonorientable_min is not None and p.nonorientable_min <= p.orientable_min
                  for p in profs]
        total = sum(base)
        if not any(choice):
            flip_i = min(with_nonor,
                         key=lambda i: profs[i].nonorientable_min - profs[i].orientable_min)
            total += profs[flip_i].nonorientable_min - profs[flip_i].orientable_min
            choice[flip_i] = True
        nonor = total
        nonor_wit = _merge_at_cutvertices(
            graph, [(p.nonorientable_witness if choice[i] else p.orientable_witness)
                    for i, p in enumerate(profs)])
    prof = GenusProfile(orient, nonor, orient_wit, nonor_wit,
                        exact=all(p.exact for p in profs))
    _check_witnesses(prof)
    return prof


_profile_cache: dict[tuple, GenusProfile] = {}


def cached_profile(graph: Graph, budget: int | None = None) -> GenusProfile:
    """Profile of a connected graph, decomposing along blocks (each block
    searched directly).  The plain min_euler_genus stays a single direct
    search so block additivity remains an independently checkable fact."""
    key = (graph.vertices, graph.edges)
    hit = _profile_cache.get(key)
    if hit is not None and hit.exact:
        return hit
    blks, _ = blocks(graph)
    if len(blks) > 1:
        prof = profile_via_blocks(graph, budget)
    else:
        prof = min_euler_genus(graph, budget)
    if len(_profile_cache) > 1024:
        _profile_cache.clear()
    _profile_cache[key] = prof
    return prof


# ---------------------------------------------------------------------------
# Embeddability decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbedDecision:
    """Outcome of an embeddability test.

    ``embeddable`` is None when the search budget ran out.  For a
    positive answer on a connected graph the witness is an embedding;
    for a disconnected graph it is a tuple of per-component embeddings
    (the combination rule places at most one component nonorientably).
    """

    surface: Surface
    embeddable: bool | None
    witness: object = None
    reason: str = ""


def _component_profiles(graph: Graph, budget: int | None) -> list[tuple[Graph, GenusProfile]]:
    out = []
    for comp in sorted(graph.components(), key=min):
        sub = graph.subgraph(comp)
        out.append((sub, cached_profile(sub, budget)))
    return out


def combined_minima(graph: Graph, budget: int | None = None) -> tuple[int, int | None]:
    """(orientable minimum, nonorientable minimum) for a possibly
    disconnected graph: orientable genera add across components; the
    nonorientable minimum spends the single nonorientable role on the
    component where it pays best."""
    parts = _component_profiles(graph, budget)
    if not parts:
        return 0, None
    orient = sum(p.orientable_min for _, p in parts)
    nonor = None
    for i, (_, pi) in enumerate(parts):
        if pi.nonorientable_min is None:
            continue
        value = pi.nonorientable_min + sum(p.orientable_min
                                           for j, (_, p) in enumerate(parts) if j != i)
        if nonor is None or value < nonor:
            nonor = value
    return orient, nonor


def embeddable_in(graph: Graph, surface: Surface,
                  budget: int | None = None) -> EmbedDecision:
    """Whether the graph embeds in the surface, with a witness when it
    does.

    Orientable target: the orientable minimum must not exceed the genus.
    Nonorientable target: either some assignment of one nonorientable
    component reaches the genus, or the graph embeds orientably below it
    (the surface then still accommodates it).
    """
    try:
        parts = _component_profiles(graph, budget)
    except BudgetExceeded as exc:
        return EmbedDecision(surface, None, reason=f"budget exceeded: {exc}")
    if any(not p.exact for _, p in parts):
        return EmbedDecision(surface, None, reason="budget exceeded during component search")
    orient, nonor = combined_minima(graph, budget)
    if surface.orientable:
        ok = orient <= surface.genus
        witness = tuple(p.orientable_witness for _, p in parts) if ok else None
        return EmbedDecision(surface, ok, witness if graph.n else ())
    # nonorientable target: min(nonorientable_min, orientable_min + 1) <= g
    # (an orientable embedding of smaller genus fits after adding a crosscap)
    ok_nonor = nonor is not None and nonor <= surface.genus
    ok_orient = orient + 1 <= surface.genus
    if ok_nonor:
        best_i = None
        best = None
        for i, (_, p) in enumerate(parts):
            if p.nonorientable_min is None:
                continue
            value = p.nonorientable_min + sum(q.orientable_min
                                              for j, (_, q) in enumerate(parts) if j != i)
            if best is None or value < best:
                best, best_i = value, i
        witness = tuple((p.nonorientable_witness if i == best_i else p.orientable_witness)
                        for i, (_, p) in enumerate(parts))
        return EmbedDecision(surface, True, witness)
    if ok_orient:
        witness = tuple(p.orientable_witness for _, p in parts)
        return EmbedDecision(surface, True, witness,
                             reason="orientable embedding of smaller genus")
    return EmbedDecision(surface, False)


def genus_via_blocks(graph: Graph, budget: int | None = None) -> int:
    """Euler genus of a connected graph as the sum over its 2-connected
    blocks (genus is additive over blocks)."""
    if not graph.is_connected():
        raise GraphError("genus_via_blocks: graph must be connected")
    blks, _ = blocks(graph)
    return sum(cached_profile(b, budget).overall_min for b in blks)
