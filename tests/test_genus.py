import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from surface_minors import genus_search
from surface_minors.embedding import Embedding
from surface_minors.graph import Graph, GraphError
from surface_minors.genus_search import (DEFAULT_BUDGET, _SCALE, BudgetError, Surface,
                                         _FaceTracker, _SearchSpace, _walk_bounds,
                                         cached_profile, combined_minima, default_budget,
                                         embeddable_in, genus_via_blocks, min_euler_genus)
from conftest import (complete, complete_bipartite, cycle_graph, grid, minors_per_class, path_graph,
                      petersen, wheel)
from oracles import (MinFaceWalks, all_rotation_signatures, all_signature_min_genus,
                     connected_graphs_up_to, naive_face_count, naive_genus, naive_is_orientable,
                     naive_orbit_lengths, unpruned_min_genus)


def test_k5_profile():
    prof = min_euler_genus(complete(5))
    assert (prof.orientable_min, prof.nonorientable_min) == (2, 1)
    assert prof.orientable_witness.euler_genus() == 2
    assert prof.nonorientable_witness.euler_genus() == 1
    assert not prof.nonorientable_witness.is_orientable()
    assert prof.exact


def test_k33_profile():
    prof = min_euler_genus(complete_bipartite(3, 3))
    assert (prof.orientable_min, prof.nonorientable_min) == (2, 1)


def test_tree_profile():
    prof = min_euler_genus(path_graph(5))
    assert (prof.orientable_min, prof.nonorientable_min) == (0, None)


def test_requires_connected():
    g = Graph.build(range(4), [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        min_euler_genus(g)


def test_budget_gives_inexact_result():
    prof = min_euler_genus(complete(5), budget=50)
    assert not prof.exact
    assert prof.orientable_witness.euler_genus() == prof.orientable_min
    # no nonorientable pattern finished, yet K5 is no forest: the profile
    # carries a witnessed upper bound, not the forest marker None
    assert prof.nonorientable_min is not None and prof.nonorientable_min >= 1
    assert not prof.nonorientable_witness.is_orientable()
    assert prof.nonorientable_witness.euler_genus() == prof.nonorientable_min


def test_inexact_embeddable_answers_from_fitting_witness(monkeypatch):
    # the budget-50 profile of K5 is inexact, but its orientable witness
    # of Euler genus at most 6 already proves that K5 embeds in S6; an
    # empty profile cache keeps exact K5 profiles of other tests out
    monkeypatch.setattr(genus_search, "_profile_cache", {})
    dec = embeddable_in(complete(5), Surface(6, True), budget=50)
    assert dec.embeddable is True and len(dec.witness) == 1
    emb = dec.witness[0]
    assert naive_is_orientable(emb.graph, emb.sig)
    bound = min_euler_genus(complete(5), budget=50).orientable_min
    assert naive_genus(emb.graph, emb.rot, emb.sig) == bound <= 6
    # no witness fits the sphere, and the search was cut short: unknown
    dec = embeddable_in(complete(5), Surface(0, True), budget=50)
    assert dec.embeddable is None and dec.witness == ()


def test_sanity_nonorientable_at_most_orientable_plus_one():
    for g in connected_graphs_up_to(6):
        prof = cached_profile(g)
        if prof.nonorientable_min is not None:
            assert prof.nonorientable_min <= prof.orientable_min + 1


def test_minor_monotonicity_random_small():
    rng = random.Random(23)
    graphs = [g for g in connected_graphs_up_to(7) if g.m >= 2]
    for g in rng.sample(graphs, 12):
        base = cached_profile(g).overall_min
        for _, m in minors_per_class(g):
            for comp in m.components:
                sub = m.subgraph(comp)
                assert cached_profile(sub).overall_min <= base


def test_embeddable_examples():
    k5 = complete(5)
    assert embeddable_in(k5, Surface(0, True)).embeddable is False
    dec = embeddable_in(k5, Surface(1, False))
    assert dec.embeddable is True
    assert dec.witness[0].euler_genus() == 1
    # planar graphs embed everywhere
    for surface in (Surface(0, True), Surface(2, True), Surface(1, False),
                    Surface(3, False)):
        assert embeddable_in(path_graph(4), surface).embeddable is True
        assert embeddable_in(wheel(5), surface).embeddable is True


def test_embeddable_orientable_exact_genus_only():
    # K5 needs orientable Euler genus 2: the torus works, the sphere does not
    k5 = complete(5)
    assert embeddable_in(k5, Surface(2, True)).embeddable is True
    # nonorientable target genus 2 also accommodates it (crosscap number 1)
    assert embeddable_in(k5, Surface(2, False)).embeddable is True


def test_forest_nonorientable_combination():
    # forests have no nonorientable embedding yet embed in every surface
    star = Graph.build(range(5), [(0, i) for i in range(1, 5)])
    prof = min_euler_genus(star)
    assert prof.nonorientable_min is None
    assert embeddable_in(star, Surface(1, False)).embeddable is True


PARTS = {"K5": complete(5), "K3,3": complete_bipartite(3, 3), "K4": complete(4),
         "C5": cycle_graph(5), "P3": path_graph(3)}


def join(a: Graph, b: Graph, how: str) -> Graph:
    """a on 0..n_a-1 and b after it (both labeled from 0), either
    "disjoint", or with a "bridge" from a's last vertex to b's first, or
    with b's first vertex identified with a's last ("cutvertex")."""
    shift = a.n - 1 if how == "cutvertex" else a.n
    edges = list(a.edges) + [(u + shift, v + shift) for u, v in b.edges]
    if how == "bridge":
        edges.append((a.n - 1, a.n))
    return Graph.build(range(shift + b.n), edges)


def test_disconnected_combination_rule():
    two = join(PARTS["K3,3"], PARTS["K3,3"], "disjoint")
    # each component takes its own crosscap: N1 # N1 = N2
    assert combined_minima(two) == (4, 2)
    assert embeddable_in(two, Surface(1, False)).embeddable is False
    assert embeddable_in(two, Surface(2, False)).embeddable is True
    assert embeddable_in(two, Surface(3, False)).embeddable is True
    assert embeddable_in(two, Surface(4, True)).embeddable is True
    assert embeddable_in(two, Surface(2, True)).embeddable is False
    # one bridge more gives the same minima through the block rule
    bridged = join(PARTS["K3,3"], PARTS["K3,3"], "bridge")
    prof = cached_profile(bridged)
    assert (prof.orientable_min, prof.nonorientable_min) == (4, 2)


def test_klein_bottle_witness_for_two_k33_against_oracle():
    two = join(PARTS["K3,3"], PARTS["K3,3"], "disjoint")
    dec = embeddable_in(two, Surface(2, False))
    assert dec.embeddable is True and len(dec.witness) == 2
    for emb in dec.witness:
        rotation, signature = dict(emb.rotation), dict(emb.signature)
        assert emb.graph.n == 6 and emb.graph.m == 9
        assert not naive_is_orientable(emb.graph, signature)
        assert naive_genus(emb.graph, rotation, signature) == 1


SURFACES = (Surface(0, True), Surface(1, False), Surface(2, True), Surface(2, False),
            Surface(3, False))


@settings(max_examples=40, deadline=None)
@example("K3,3", "K3,3", "bridge")
@given(st.sampled_from(sorted(PARTS)), st.sampled_from(sorted(PARTS)),
       st.sampled_from(("disjoint", "bridge", "cutvertex")))
def test_embeddability_minor_monotone(a, b, how):
    g = join(PARTS[a], PARTS[b], how)
    minors = minors_per_class(g)
    for surface in SURFACES:
        if embeddable_in(g, surface).embeddable:
            for op, m in minors:
                assert embeddable_in(m, surface).embeddable, (surface, op)


def test_genus_via_blocks_examples():
    k5 = complete(5)
    # two K5 blocks sharing a cutvertex
    kk = Graph.build(range(9), list(k5.edges)
                     + [(a, b) for a in (0, 5, 6, 7, 8) for b in (0, 5, 6, 7, 8) if a < b])
    assert genus_via_blocks(kk) == 2
    # a 2-connected graph equals the direct search
    assert genus_via_blocks(k5) == cached_profile(k5).overall_min == 1
    # pendant path contributes nothing
    k5_tail = Graph.build(range(7), list(k5.edges) + [(4, 5), (5, 6)])
    assert genus_via_blocks(k5_tail) == 1
    assert cached_profile(k5_tail).overall_min == 1


def test_block_additivity_exhaustive_small():
    # against the direct search: cached_profile itself decomposes by blocks
    for g in connected_graphs_up_to(6):
        assert genus_via_blocks(g) == min_euler_genus(g).overall_min


def test_against_unpruned_oracle_exhaustive():
    graphs = connected_graphs_up_to(8)
    assert len(graphs) == 359
    for g in graphs:
        expected = unpruned_min_genus(g)
        prof = min_euler_genus(g)
        assert (prof.orientable_min, prof.nonorientable_min) == expected, g.edges
        prof = cached_profile(g)
        assert (prof.orientable_min, prof.nonorientable_min) == expected, g.edges


def test_tree_positive_signatures_lose_no_minimum():
    # every embedding is equivalent to one whose spanning-tree edges are
    # positive, so the search and the unpruned oracle, which sign only
    # cotree edges, reach both minima of the full space of 2^m signatures
    graphs = connected_graphs_up_to(6)
    assert len(graphs) == 53
    for g in graphs:
        assert all_signature_min_genus(g) == unpruned_min_genus(g), g.edges


def cube() -> Graph:
    return Graph.build(range(8), [(a, a ^ b) for a in range(8) for b in (1, 2, 4) if a < a ^ b])


def _scratch_orbits(succ: dict[int, int], graph: Graph, min_face: int) -> tuple[int, int]:
    """(closed orbits, sum over open walks of their weight) of a partial
    successor map on the 4m states, by walking from every state until it
    returns or leaves the map.  A walk of l states from state a to state
    e weighs ceil(l * _SCALE / max(min_face, l + d)), with d the networkx
    BFS distance from the head of e's dart to the tail of a's dart."""
    nstates = 4 * graph.m
    dist = dict(nx.all_pairs_shortest_path_length(graph.to_nx()))
    ends = [e for u, v in graph.edges for e in ((u, v), (v, u))]  # (tail, head) per dart
    orbits = 0
    for s0 in succ:
        walk = [s0]
        s = succ[s0]
        while s in succ and s != s0 and len(walk) <= len(succ):
            walk.append(s)
            s = succ[s]
        if s == s0 and s0 == min(walk):
            orbits += 1
    walk_sum = 0
    for s0 in set(range(nstates)) - set(succ.values()):  # the first states of open walks
        length, s = 1, s0
        while s in succ:
            length, s = length + 1, succ[s]
        d = dist[ends[s >> 1][1]][ends[s0 >> 1][0]]
        walk_sum += math.ceil(Fraction(length * _SCALE, max(min_face, length + d)))
    return orbits, walk_sum


def test_face_tracker_matches_scratch_count():
    rng = random.Random(7)
    graphs = [g for g in connected_graphs_up_to(7) if g.m >= 1]
    graphs = rng.sample(graphs, 40) + [complete(5), complete_bipartite(3, 4), petersen()]
    for g in graphs:
        space = _SearchSpace(g)
        nstates = 4 * g.m
        heads = {d: (v if d % 2 == 0 else u)
                 for i, (u, v) in enumerate(g.edges) for d in (2 * i, 2 * i + 1)}
        for _ in range(3):
            signature = {e: rng.choice((1, -1)) for e in g.edges}
            neg = [signature[e] < 0 for e in g.edges]
            order = list(g.vertices)
            rng.shuffle(order)
            min_face = rng.choice((space.min_face, 2, 5))
            tracker = _FaceTracker(*_walk_bounds(g, min_face))
            start = _scratch_orbits({}, g, min_face)
            assert (tracker.orbits, tracker.walk_sum) == start
            succ: dict[int, int] = {}
            placed = []
            for v in order:
                rot, pairs = rng.choice(space.choices(v, neg))
                bound = tracker.link(pairs)
                succ.update(pairs)
                placed.append((v, rot, pairs))
                assert (tracker.orbits, tracker.walk_sum) == _scratch_orbits(succ, g, min_face)
                assert bound == tracker.orbits + tracker.walk_sum // _SCALE
            assert tracker.walk_sum == 0
            rotation = {v: tuple(heads[d] for d in rot) for v, rot, _ in placed}
            assert tracker.orbits // 2 == naive_face_count(g, rotation, signature)
            for v, _, pairs in reversed(placed):
                tracker.unlink(pairs)
                for s, _ in pairs:
                    del succ[s]
                assert (tracker.orbits, tracker.walk_sum) == _scratch_orbits(succ, g, min_face)
            assert (tracker.orbits, tracker.walk_sum) == start
            assert tracker.start_of == tracker.end_of == list(range(nstates))
            assert tracker.length == [1] * nstates


def _min_face_rule(monkeypatch) -> None:
    """Make the search prune with the earlier walk rule of the oracles."""
    monkeypatch.setattr(_SearchSpace, "walk_bounds",
                        property(lambda space: (4 * space.graph.m, space.min_face)))
    monkeypatch.setattr(genus_search, "_FaceTracker", MinFaceWalks)


def random_connected(rng: random.Random, n: int, extra: int) -> Graph:
    """A random tree on n vertices plus up to ``extra`` random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(extra)}
    return Graph.build(range(n), edges)


def test_distance_bound_never_explores_more_than_the_min_face_rule(monkeypatch):
    # the distance bound is never weaker than min(length, min_face) and
    # the search order is the same, so on every graph it finds the same
    # minima with at most as many child evaluations (with weights exact
    # up to orbit bounds of 16 states, and rounded up beyond)
    rng = random.Random(26)
    graphs = [random_connected(rng, rng.randint(5, 9), rng.randint(3, 12)) for _ in range(40)]
    new = [min_euler_genus(g) for g in graphs]
    _min_face_rule(monkeypatch)
    old = [min_euler_genus(g) for g in graphs]
    fewer = 0
    for g, a, b in zip(graphs, new, old):
        assert (a.orientable_min, a.nonorientable_min, a.exact) == \
            (b.orientable_min, b.nonorientable_min, b.exact), g.edges
        assert a.explored <= b.explored, g.edges
        fewer += a.explored < b.explored
    assert fewer >= len(graphs) // 2


def test_min_face_bounds_every_facial_walk():
    checked = set()
    for g in connected_graphs_up_to(7):
        if g.m < 2 or min(g.degree(v) for v in g.vertices) < 2:
            continue
        min_face = _SearchSpace(g).min_face
        assert min_face == g.girth()
        shortest = min(min(naive_orbit_lengths(g, rotation, signature))
                       for rotation, signature, _ in all_rotation_signatures(g))
        assert min_face <= shortest, g.edges
        checked.add(min_face)
    assert checked >= {3, 4, 5, 6, 7}


def test_girth_bound_prunes_more_with_same_answers(monkeypatch):
    graphs = [complete_bipartite(3, 4), petersen(), cube()]
    with_girth = [min_euler_genus(g) for g in graphs]
    assert [(p.orientable_min, p.nonorientable_min) for p in with_girth] == [(2, 1), (2, 1), (0, 1)]
    monkeypatch.setattr(Graph, "girth", lambda self: 3)
    for g, prof in zip(graphs, with_girth):
        plain = min_euler_genus(g)
        assert (plain.orientable_min, plain.nonorientable_min) == \
            (prof.orientable_min, prof.nonorientable_min)
        assert prof.explored < plain.explored


def test_one_search_per_side(monkeypatch):
    calls = []
    real = genus_search._search

    def recording(space, orientable, best_start, floor, counter, budget):
        result = real(space, orientable, best_start, floor, counter, budget)
        calls.append((orientable, best_start, floor, result))
        return result

    monkeypatch.setattr(genus_search, "_search", recording)
    planar = [wheel(5), cube(), complete(4), cycle_graph(6), grid(4, 5)]
    # two K3,3 at a cutvertex: nonorientable minimum 2, above the floor 1
    above_floor = join(PARTS["K3,3"], PARTS["K3,3"], "cutvertex")
    for g in planar + [complete(5), complete_bipartite(3, 4), petersen(), above_floor]:
        calls.clear()
        prof = min_euler_genus(g)
        assert prof.exact
        # at most one search per side, the orientable one first
        assert [call[0] for call in calls] in ([], [True], [False], [True, False])
        tree = set(g.bfs[1])
        cotree = [e for e in g.edges if e not in tree]
        twisted = Embedding.build(g, prof.orientable_witness.rot, {cotree[0]: -1}).euler_genus()
        low = 2 - g.n + g.m - 2 * g.m // _SearchSpace(g).min_face
        floor = max(1, low)
        assert floor <= prof.nonorientable_min <= twisted
        nonor = [call[1:] for call in calls if not call[0]]
        if twisted == floor:
            assert not nonor
        else:
            # the search starts at the twisted witness and replaces it
            # only with a strictly better one, with negative cotree edges
            [(start, search_floor, (found, rot, negative, ended))] = nonor
            assert (start, search_floor, ended) == (twisted, floor, True)
            if rot is None:
                assert found == prof.nonorientable_min == twisted
            else:
                assert found == prof.nonorientable_min < twisted
                assert negative and set(negative) <= set(cotree)
        if g in planar:
            assert prof.nonorientable_min == 1 and not nonor
        if g in planar and g.m <= 12:
            # below the floor, the nonorientable side still reaches no
            # orientable leaf of genus 0
            found, _, negative, ended = real(_SearchSpace(g), False, g.m, 0, [0], DEFAULT_BUDGET)
            assert (found, ended) == (1, True) and negative
    assert prof.nonorientable_min == 2 and nonor


def test_k6_is_exact_at_the_default_budget():
    prof = min_euler_genus(complete(6), budget=DEFAULT_BUDGET)
    assert (prof.orientable_min, prof.nonorientable_min, prof.exact) == (2, 1, True)
    assert prof.explored < 200_000


def test_budget_keeps_the_witness_found_before_it_ran_out():
    # K3,4 is (2, 1) and exact after 333 child evaluations; at budget 300
    # the nonorientable search has found a witness of genus 2, below the
    # twisted warm start of genus 3, and not yet one of genus 1
    prof = min_euler_genus(complete_bipartite(3, 4), budget=300)
    assert not prof.exact
    assert (prof.orientable_min, prof.nonorientable_min) == (2, 2)
    wit = prof.nonorientable_witness
    assert not naive_is_orientable(wit.graph, wit.sig)
    assert naive_genus(wit.graph, wit.rot, wit.sig) == 2


def test_block_profile_counts_the_block_searches(monkeypatch):
    monkeypatch.setattr(genus_search, "_profile_cache", {})
    two = join(PARTS["K5"], PARTS["K5"], "cutvertex")
    prof = cached_profile(two)
    assert (prof.orientable_min, prof.nonorientable_min) == (4, 2)
    parts = [min_euler_genus(two.subgraph(b)) for b in (range(5), range(4, 9))]
    assert prof.explored == sum(p.explored for p in parts) > 0


def test_planar_grid_needs_no_nonorientable_search():
    # the twisted orientable witness meets the nonorientable floor 1
    prof = min_euler_genus(grid(5, 6))
    assert (prof.orientable_min, prof.nonorientable_min) == (0, 1) and prof.exact
    assert prof.explored < 100_000


def test_witness_check_survives_optimize():
    script = textwrap.dedent("""
        import sys
        from surface_minors import genus_search as gs
        from surface_minors.graph import Graph

        real = gs._search

        def corrupted(*args):
            found, rot, negative, ended = real(*args)
            return found + 2, rot, negative, ended   # claims more than the witness has

        gs._search = corrupted
        print("debug", __debug__)
        try:
            # K5's default embedding has Euler genus 4, so the search runs
            gs.min_euler_genus(Graph.build(range(5), [(a, b) for a in range(5) for b in range(a)]))
        except gs.SearchCheckError as exc:
            print("SearchCheckError", exc)
            sys.exit(0)
        sys.exit(1)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "debug False" in run.stdout
    assert "SearchCheckError orientable witness" in run.stdout


def test_default_budget_rejects_bad_values(monkeypatch):
    monkeypatch.delenv("SURFACE_MINORS_BUDGET", raising=False)
    assert default_budget() == DEFAULT_BUDGET
    monkeypatch.setenv("SURFACE_MINORS_BUDGET", "1234")
    assert default_budget() == 1234
    for bad in ("many", "1e6", "0", "-5"):
        monkeypatch.setenv("SURFACE_MINORS_BUDGET", bad)
        with pytest.raises(BudgetError, match="SURFACE_MINORS_BUDGET"):
            default_budget()


def test_surface_validation():
    with pytest.raises(ValueError):
        Surface(1, True)
    with pytest.raises(ValueError):
        Surface(0, False)
    assert str(Surface.parse("2:orientable")) == "2:orientable"
    with pytest.raises(ValueError):
        Surface.parse("2")
