"""Exact minimum Euler genus by pruned exhaustive search.

Every embedding is equivalent to one with positive spanning-tree edges,
which is orientable exactly when its cotree edges are positive too.  So
each side of the genus profile is one search over rotations and cotree
signs, all positive on the orientable side and any other pattern on the
nonorientable side.  Vertices are placed in BFS order; a child is one
rotation at the next vertex plus one sign choice for the cotree edges
whose first endpoint it is, so sign patterns with a common prefix share
the search above it.  The nonorientable side tries negative signs first
and drops an all-positive branch once every sign is chosen.  The start
vertex's rotation is enumerated only up to reversal, which quotients
the global mirror symmetry.

Faces are built incrementally, face by face as in G. Brinkmann, "A
practical algorithm for the computation of the genus" (Ars Math.
Contemp., 2022).  A face is a pair of orbits of the successor
permutation on (dart, sense) states; the dart kernel of ``embedding``
numbers the states and writes the successor rule, for face tracing and
for this search alike.  The successor of a state is fixed once the
vertex its dart enters has a rotation, so placing a vertex of degree d
links 2d states: each link closes an open walk into an orbit or joins
two walks.  Walk ends and lengths live in flat arrays and are undone in
reverse on backtrack, so a child costs O(d) rather than a re-trace of
all 4m states.

A partial assignment is pruned by a genus lower bound.  Let min_face be
a lower bound on the length of every face: 3 in a simple graph with at
least two edges, and the girth when every vertex has degree at least 2
(a facial walk turns straight back only at a degree-1 vertex, so
otherwise every face contains a cycle).  Every orbit still to close is
a union of current open walks holding at least min_face states, so
there are at most (sum over open walks of min(length, min_face)) //
min_face of them; with the orbits already closed this overestimates
twice the final face count.  Orientable Euler genus is even, so on the
orientable side a child survives only if its bound is at least 2 below
the incumbent, on the nonorientable side at least 1.

Each side holds a witness from the start, and its genus is the
incumbent that the bound prunes against.  The orientable side starts
from the default embedding; the nonorientable side starts from the
orientable incumbent with one cotree edge twisted, which makes that
edge's fundamental cycle one-sided.  A search replaces the incumbent
only with a strictly better witness, so the minima stay witnessed upper
bounds at every point, exact once the search ends.

No embedding has more than 2m // min_face faces, which gives a floor on
the Euler genus: that bound rounded up to even and at least 0 on the
orientable side, at least 1 on the nonorientable side.  A side's search
stops as soon as its incumbent meets its floor, and does not start when
the warm start meets it.  The budget counts child evaluations, the unit
of work.

Tests check the pruning against an unpruned oracle on every connected
graph with at most eight edges, and that oracle's cotree signs against
all 2^m signatures (``test_tree_positive_signatures_lose_no_minimum``).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .graph import Edge, Graph, GraphError, blocks
from .embedding import Embedding, dart, dart_ends, rotations, successor_pairs


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
    """Search stopped before the space was exhausted; ``explored`` is the
    number of child evaluations (one rotation placed at one vertex) made
    until then."""

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

    def fits(self, euler_genus: int, orientable: bool) -> bool:
        """Whether an embedding of this Euler genus and orientability
        extends to this surface by adding handles or crosscaps.  An
        orientable one reaches N_(t+1) with one crosscap, a nonorientable
        one never reaches an orientable surface."""
        if self.orientable:
            return orientable and euler_genus <= self.genus
        return euler_genus + orientable <= self.genus


@dataclass(frozen=True)
class GenusProfile:
    """Minimum Euler genus over orientable and nonorientable embeddings.

    ``nonorientable_min`` is None for forests (a forest has no
    nonorientable embedding at all).  Witness embeddings re-evaluate to
    the claimed genus.  ``exact`` is False when the search budget ran out,
    in which case the minima are upper bounds, each with its witness.
    ``explored`` counts child evaluations, the unit of the budget: one
    rotation placed at one vertex, whether or not the bound prunes it.
    """

    orientable_min: int
    nonorientable_min: int | None
    orientable_witness: Embedding | None
    nonorientable_witness: Embedding | None
    exact: bool = True
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
    """BFS vertex order, rotation lists, cotree and face-length bound
    for one graph, shared by both sides of the search.  Rotations are
    tuples of out-darts, states are numbered as in the dart kernel of
    ``embedding``, and cotree edges by their index in ``graph.edges``."""

    def __init__(self, graph: Graph):
        self.graph = graph
        order = self.vertex_order = graph.bfs[0]
        self.rotations = {v: rotations([dart(graph, v, w) for w in graph.neighbors(v)],
                                       fixed=(i == 0))
                          for i, v in enumerate(order)}
        tree = set(graph.bfs[1])
        self.cotree = [k for k, e in enumerate(graph.edges) if e not in tree]
        # per vertex index: the cotree edges at it, and those it signs
        # (whose first endpoint in the order it is) with their sign
        # choices, negative first and so all positive last
        position = {v: i for i, v in enumerate(order)}
        self.incident = [[k for k in self.cotree if v in graph.edges[k]] for v in order]
        self.signs = [[k for k in ks if min(position[u] for u in graph.edges[k]) == i]
                      for i, ks in enumerate(self.incident)]
        self.signings = [list(itertools.product((True, False), repeat=len(ks)))
                         for ks in self.signs]
        self.options_cache: dict[tuple, tuple] = {}
        # a lower bound on every face length (see the module docstring)
        if graph.m < 2:
            self.min_face = 2
        elif all(graph.degree(v) >= 2 for v in graph.vertices):
            self.min_face = graph.girth()
        else:
            self.min_face = 3

    def choices(self, v: int, neg: list[bool]) -> tuple[tuple[tuple[int, ...], list], ...]:
        """Each rotation at v with the (state, successor) pairs it fixes
        under the edge signs ``neg``."""
        return tuple((rot, successor_pairs(rot, neg)) for rot in self.rotations[v])

    def options(self, idx: int, neg: list[bool]) -> tuple[tuple[tuple[int, ...], list], ...]:
        """``choices`` at vertex index ``idx``, cached by the signs of its
        cotree edges (tree edges are positive)."""
        key = (idx, tuple([neg[k] for k in self.incident[idx]]))
        hit = self.options_cache.get(key)
        if hit is None:
            hit = self.options_cache[key] = self.choices(self.vertex_order[idx], neg)
        return hit


class _FaceTracker:
    """Facial orbits of a partial successor permutation, kept up to date
    link by link.

    Linking state s to its successor t fixes one arc of the permutation,
    so the fixed arcs always form closed orbits plus disjoint open walks.
    ``start_of[e]`` is the first state of the open walk ending at e;
    ``end_of[s]`` and ``length[s]`` are the last state and the number of
    states of the open walk starting at s.  Only entries at walk ends are
    kept current; the stale ones are exactly what undo needs.
    ``walk_sum`` is the sum over open walks of min(length, min_face).
    ``saved`` holds ``(orbits, walk_sum)`` from before each ``link`` not yet undone.
    """

    __slots__ = ("start_of", "end_of", "length", "min_face", "orbits", "walk_sum", "saved")

    def __init__(self, nstates: int, min_face: int):
        self.start_of = list(range(nstates))
        self.end_of = list(range(nstates))
        self.length = [1] * nstates
        self.min_face = min_face
        self.orbits = 0  # closed orbits
        self.walk_sum = nstates  # every state starts as a walk of length 1
        self.saved: list[tuple[int, int]] = []

    def link(self, pairs: tuple[tuple[int, int], ...]) -> None:
        """Fix succ(s) = t for each pair; s must end an open walk and t
        start one.  A link within one walk closes it into an orbit."""
        start_of, end_of, length, cap = self.start_of, self.end_of, self.length, self.min_face
        self.saved.append((self.orbits, self.walk_sum))
        closed = delta = 0
        for s, t in pairs:
            a = start_of[s]
            lt = length[t]
            if a == t:
                closed += 1
                delta -= lt if lt < cap else cap
            else:
                b = end_of[t]
                end_of[a] = b
                start_of[b] = a
                la = length[a]
                length[a] = la + lt
                # the joined walk counts min(la + lt, cap), the two parts
                # min(la, cap) + min(lt, cap)
                if la >= cap:
                    delta -= lt if lt < cap else cap
                elif lt >= cap:
                    delta -= la
                elif la + lt > cap:
                    delta += cap - la - lt
        self.orbits += closed
        self.walk_sum += delta

    def unlink(self, pairs: tuple[tuple[int, int], ...]) -> None:
        """Undo the matching ``link`` call; calls must nest."""
        start_of, end_of, length = self.start_of, self.end_of, self.length
        for s, t in reversed(pairs):
            a = start_of[s]
            if a != t:
                end_of[a] = s
                start_of[end_of[t]] = t
                length[a] -= length[t]
        self.orbits, self.walk_sum = self.saved.pop()


class _FloorReached(Exception):
    """The incumbent of ``_search`` met the floor; no leaf can beat it."""


def _search(space: _SearchSpace, orientable: bool, best_start: int, floor: int,
            counter: list[int], budget: int) -> tuple[int, dict | None, list[Edge] | None, bool]:
    """Branch and bound over rotations and cotree signs on one side.
    Returns (genus, rotation, negative cotree edges, ended): the best
    genus found below ``best_start`` with the witness of a leaf that has
    it (None, None when no leaf did), stopping at ``floor``, a lower
    bound on every leaf of the side.  ``ended`` is False when the budget
    ran out; the witness found until then is kept.  ``counter`` counts
    child evaluations against ``budget``; placing the rotation at a
    vertex links the successor of every state entering it, so each child
    costs O(deg v), not a re-trace of all 4m states.
    """
    graph, order, min_face = space.graph, space.vertex_order, space.min_face
    signs, signings, options = space.signs, space.signings, space.options
    n = len(order)
    base = 2 - n + graph.m  # Euler genus = base - faces
    last = max((i for i, ks in enumerate(signs) if ks), default=-1)  # the last signing vertex
    step = 2 if orientable else 1  # every orientable leaf has even Euler genus
    faces = _FaceTracker(4 * graph.m, min_face)
    link, unlink = faces.link, faces.unlink
    neg = [False] * graph.m
    best, witness = best_start, (None, None)
    # a child survives when its bound base - (orbits + walk_sum // min_face) // 2
    # is at most best - step, that is when orbits + walk_sum // min_face >= need
    need = 2 * (base - best + step)
    chosen: list[tuple[int, ...]] = [()] * n

    def rec(idx: int, negatives: int):
        nonlocal best, witness, need
        if idx == n:
            if faces.orbits % 2:
                raise SearchCheckError(f"odd number of facial orbits ({faces.orbits})")
            genus = base - faces.orbits // 2
            if genus < best:
                best = genus
                witness = ({v: [w for _, w in dart_ends(graph, r)] for v, r in zip(order, chosen)},
                           [graph.edges[k] for k in space.cotree if neg[k]])
                if best <= floor:
                    raise _FloorReached
                need = 2 * (base - best + step)
            return
        if orientable:
            choices = signings[idx][-1:]
        elif idx == last and not negatives:
            choices = signings[idx][:-1]  # all positive: every leaf below is orientable
        else:
            choices = signings[idx]
        for signed in choices:
            for k, s in zip(signs[idx], signed):
                neg[k] = s
            below = negatives + sum(signed)
            for rot, pairs in options(idx, neg):
                counter[0] += 1
                if counter[0] > budget:
                    raise BudgetExceeded("rotation search budget exhausted", counter[0])
                link(pairs)
                # each face is two orbits, one per sense; every future orbit
                # joins open walks holding at least min_face states, so there
                # are at most walk_sum // min_face of them
                if faces.orbits + faces.walk_sum // min_face >= need:
                    chosen[idx] = rot
                    rec(idx + 1, below)
                unlink(pairs)

    try:
        rec(0, 0)
    except _FloorReached:
        pass
    except BudgetExceeded:
        return best, *witness, False
    return best, *witness, True


def min_euler_genus(graph: Graph, budget: int | None = None) -> GenusProfile:
    """Exact minimum Euler genus over orientable and over nonorientable
    embeddings of a connected graph, with witnesses.

    Each side holds a (genus, witness) incumbent from the start: the
    orientable side the default embedding, the nonorientable side the
    orientable incumbent with its first cotree edge twisted, once the
    orientable search has ended.  Then one search per side, over
    rotations and cotree signs (``_search``), replaces the incumbent only
    with a strictly better witness; a side whose incumbent meets its
    floor is not searched.  Exceeding the budget yields an inexact
    profile of witnessed upper bounds (never a silent guess), keeping
    every witness found until then.
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
    counter = [0]
    exact = True

    def improve(incumbent: tuple[int, Embedding], orientable: bool,
                floor: int) -> tuple[int, Embedding]:
        """The incumbent, or the better witness that the side's search finds."""
        nonlocal exact
        found, rot, negative, ended = _search(space, orientable, incumbent[0], floor,
                                              counter, budget)
        exact = exact and ended
        if rot is None:
            return incumbent
        return found, Embedding.build(graph, rot, dict.fromkeys(negative, -1))

    # no embedding has more than 2m // min_face faces
    low = 2 - graph.n + graph.m - 2 * graph.m // space.min_face
    orient_floor = max(0, low + low % 2)
    nonor_floor = max(1, low)
    emb = Embedding.build(graph)
    orient = (emb.euler_genus(), emb)
    if orient[0] > orient_floor:
        orient = improve(orient, True, orient_floor)
    nonor = (None, None)
    if space.cotree:
        # a negative cotree edge makes its fundamental cycle one-sided
        emb = Embedding.build(graph, orient[1].rot, {graph.edges[space.cotree[0]]: -1})
        nonor = (emb.euler_genus(), emb)
        if exact and nonor[0] > nonor_floor:
            nonor = improve(nonor, False, nonor_floor)

    profile = GenusProfile(orient[0], nonor[0], orient[1], nonor[1], exact, counter[0])
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


def _combine(profiles: list[GenusProfile]) -> tuple[int, int | None, list[bool] | None]:
    """The combination rule for parts that share at most one vertex
    (blocks at a cutvertex, or components): Euler genus adds, since
    N_a # N_b = N_(a+b) and S_a # N_b = N_(a+b).

    Returns (orientable minimum, nonorientable minimum, choice).
    Orientable minima add.  The nonorientable minimum takes each part's
    cheaper minimum, with at least one part nonorientable, and
    ``choice[i]`` says whether part i uses its nonorientable witness.
    When no part has a nonorientable embedding (all forests) the last
    two are None.
    """
    orient = sum(p.orientable_min for p in profiles)
    with_nonor = [i for i, p in enumerate(profiles) if p.nonorientable_min is not None]
    if not with_nonor:
        return orient, None, None
    choice = [p.nonorientable_min is not None and p.nonorientable_min <= p.orientable_min
              for p in profiles]
    if not any(choice):
        flip = min(with_nonor,
                   key=lambda i: profiles[i].nonorientable_min - profiles[i].orientable_min)
        choice[flip] = True
    nonor = sum(p.nonorientable_min if c else p.orientable_min
                for p, c in zip(profiles, choice))
    return orient, nonor, choice


def _witnesses(profiles: list[GenusProfile], choice: list[bool] | None = None) -> list[Embedding]:
    """Each part's nonorientable witness where ``choice`` says so, else
    its orientable one."""
    return [p.nonorientable_witness if choice and choice[i] else p.orientable_witness
            for i, p in enumerate(profiles)]


def profile_via_blocks(graph: Graph, budget: int | None = None) -> GenusProfile:
    """Genus profile of a connected graph assembled from its blocks by
    the combination rule (``_combine``); a single block is searched
    directly.  Witnesses are merged block witnesses and re-verify by the
    Euler formula.
    """
    if not graph.is_connected():
        raise GraphError("profile_via_blocks: graph must be connected")
    blks, _ = blocks(graph)
    if len(blks) <= 1:
        return min_euler_genus(graph, budget)
    profs = [cached_profile(b, budget) for b in blks]
    orient, nonor, choice = _combine(profs)
    orient_wit = _merge_at_cutvertices(graph, _witnesses(profs))
    nonor_wit = None if choice is None else _merge_at_cutvertices(graph, _witnesses(profs, choice))
    prof = GenusProfile(orient, nonor, orient_wit, nonor_wit,
                        exact=all(p.exact for p in profs),
                        explored=sum(p.explored for p in profs))
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
    prof = profile_via_blocks(graph, budget)
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

    ``embeddable`` is None when the search budget ran out before any
    witnessed embedding fit the surface.  A positive answer carries a
    tuple of per-component embeddings (one entry for a connected graph),
    chosen by the combination rule: any number of components may be
    nonorientable.  The witnesses prove it even when the search behind
    them was cut short.
    """

    surface: Surface
    embeddable: bool | None
    witness: tuple[Embedding, ...] = ()
    reason: str = ""


def _component_profiles(graph: Graph, budget: int | None) -> list[GenusProfile]:
    return [cached_profile(graph.subgraph(comp), budget)
            for comp in sorted(graph.components(), key=min)]


def combined_minima(graph: Graph, budget: int | None = None) -> tuple[int, int | None]:
    """(orientable minimum, nonorientable minimum) for a possibly
    disconnected graph, by the combination rule over its components."""
    orient, nonor, _ = _combine(_component_profiles(graph, budget))
    return orient, nonor


def embeddable_in(graph: Graph, surface: Surface,
                  budget: int | None = None) -> EmbedDecision:
    """Whether the graph embeds in the surface, with a witness when it
    does.

    The components combine by ``_combine``.  The nonorientable minimum
    is tried first, then the orientable one (``Surface.fits``: an
    orientable embedding reaches a nonorientable surface with one
    crosscap more).  An inexact profile's minima are witnessed upper
    bounds, so a fit is a proof either way; only when nothing fits and
    some profile is inexact is the answer unknown.
    """
    profs = _component_profiles(graph, budget)
    orient, nonor, choice = _combine(profs)
    if nonor is not None and surface.fits(nonor, False):
        return EmbedDecision(surface, True, tuple(_witnesses(profs, choice)))
    if surface.fits(orient, True):
        return EmbedDecision(surface, True, tuple(_witnesses(profs)),
                             "" if surface.orientable else "orientable embedding of smaller genus")
    if any(not p.exact for p in profs):
        return EmbedDecision(surface, None, reason="budget exceeded during component search")
    return EmbedDecision(surface, False)


def genus_via_blocks(graph: Graph, budget: int | None = None) -> int:
    """Euler genus of a connected graph as the sum over its 2-connected
    blocks (genus is additive over blocks)."""
    if not graph.is_connected():
        raise GraphError("genus_via_blocks: graph must be connected")
    blks, _ = blocks(graph)
    return sum(cached_profile(b, budget).overall_min for b in blks)
