import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from surface_minors.graph import Graph, GraphError, one_step_minors
from surface_minors.genus_search import (DEFAULT_BUDGET, BudgetError, BudgetExceeded,
                                         GenusProfile, Surface, _FaceTracker,
                                         _SearchSpace, cached_profile, combined_minima,
                                         default_budget, embeddable_in,
                                         genus_via_blocks, min_euler_genus)
from conftest import complete, complete_bipartite, cycle_graph, path_graph, wheel
from oracles import (all_rotation_signatures, connected_graphs_up_to,
                     naive_face_count, naive_orbit_lengths, unpruned_min_genus)


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
        for op, m in one_step_minors(g, dedup=True):
            for comp in m.components():
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


def test_disconnected_combination_rule():
    k33 = complete_bipartite(3, 3)
    two = Graph.build(range(12),
                      list(k33.edges) + [(u + 6, v + 6) for u, v in k33.edges])
    assert combined_minima(two) == (4, 3)
    assert embeddable_in(two, Surface(1, False)).embeddable is False
    assert embeddable_in(two, Surface(3, False)).embeddable is True
    assert embeddable_in(two, Surface(4, True)).embeddable is True
    assert embeddable_in(two, Surface(2, True)).embeddable is False


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
    for g in connected_graphs_up_to(6):
        if not g.is_connected():
            continue
        assert genus_via_blocks(g) == cached_profile(g).overall_min


def test_against_unpruned_oracle_exhaustive():
    graphs = connected_graphs_up_to(8)
    assert len(graphs) == 359
    for g in graphs:
        expected = unpruned_min_genus(g)
        prof = min_euler_genus(g)
        assert (prof.orientable_min, prof.nonorientable_min) == expected, g.edges
        prof = cached_profile(g)
        assert (prof.orientable_min, prof.nonorientable_min) == expected, g.edges


def petersen() -> Graph:
    return Graph.build(range(10), [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _scratch_orbits(succ: dict[int, int]) -> tuple[int, int]:
    """(closed orbits, states on them) of a partial successor map, by
    walking from every state until it returns or leaves the map."""
    orbits = used = 0
    for s0 in succ:
        walk = [s0]
        s = succ[s0]
        while s in succ and s != s0 and len(walk) <= len(succ):
            walk.append(s)
            s = succ[s]
        if s == s0 and s0 == min(walk):
            orbits += 1
            used += len(walk)
    return orbits, used


def test_face_tracker_matches_scratch_count():
    rng = random.Random(7)
    graphs = [g for g in connected_graphs_up_to(7) if g.m >= 1]
    graphs = rng.sample(graphs, 40) + [complete(5), complete_bipartite(3, 4), petersen()]
    for g in graphs:
        space = _SearchSpace(g)
        heads = {d: (v if d % 2 == 0 else u)
                 for i, (u, v) in enumerate(g.edges) for d in (2 * i, 2 * i + 1)}
        for _ in range(3):
            signature = {e: rng.choice((1, -1)) for e in g.edges}
            neg = [signature[e] < 0 for e in g.edges]
            order = list(g.vertices)
            rng.shuffle(order)
            tracker = _FaceTracker(4 * g.m)
            succ: dict[int, int] = {}
            placed = []
            for v in order:
                rot, pairs = rng.choice(space.choices(v, neg))
                tracker.link(pairs)
                succ.update(pairs)
                placed.append((v, rot, pairs))
                assert (tracker.orbits, tracker.used) == _scratch_orbits(succ)
            assert tracker.used == 4 * g.m
            rotation = {v: tuple(heads[d] for d in rot) for v, rot, _ in placed}
            assert tracker.orbits // 2 == naive_face_count(g, rotation, signature)
            for v, _, pairs in reversed(placed):
                tracker.unlink(pairs)
                for s, _ in pairs:
                    del succ[s]
                assert (tracker.orbits, tracker.used) == _scratch_orbits(succ)
            assert tracker.start_of == tracker.end_of == list(range(4 * g.m))
            assert tracker.length == [1] * (4 * g.m)


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
    cube = Graph.build(range(8), [(a, a ^ b) for a in range(8) for b in (1, 2, 4) if a < a ^ b])
    graphs = [complete_bipartite(3, 4), petersen(), cube]
    with_girth = [min_euler_genus(g) for g in graphs]
    assert [(p.orientable_min, p.nonorientable_min) for p in with_girth] == [(2, 1), (2, 1), (0, 1)]
    monkeypatch.setattr(Graph, "girth", lambda self: 3)
    for g, prof in zip(graphs, with_girth):
        plain = min_euler_genus(g)
        assert (plain.orientable_min, plain.nonorientable_min) == \
            (prof.orientable_min, prof.nonorientable_min)
        assert prof.explored < plain.explored


def test_witness_check_survives_optimize():
    script = textwrap.dedent("""
        import sys
        from surface_minors import genus_search as gs
        from surface_minors.graph import Graph

        real = gs._search_pattern

        def corrupted(*args):
            found, rot = real(*args)
            return found + 2, rot   # claims more than the witness has

        gs._search_pattern = corrupted
        print("debug", __debug__)
        try:
            gs.min_euler_genus(Graph.build(range(4), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]))
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
