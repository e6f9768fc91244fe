import collections
import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from surface_minors.graph import Graph, edge_key
from surface_minors.embedding import Embedding, FaceWalk, default_embedding, random_embedding
from surface_minors.topology import (TopologyError, _intersection_components, are_homotopic,
                                     classify_cycle, cut_along, total_genus)
from surface_minors.structure import enumerate_cycles
from conftest import (complete, complete_bipartite, cycle_graph, grid, petersen,
                      planar_embedding, rotations_from_positions, torus_grid, wheel)
from oracles import (all_rotation_signatures, connected_graphs_up_to, double_cut_homotopy,
                     torus_winding, union_find_classify)


def all_embeddings(g: Graph):
    """One embedding per rotation system and cotree signature pattern."""
    return (Embedding.build(g, r, s) for r, s, _ in all_rotation_signatures(g))


PRISM = Graph.build(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                               (0, 3), (1, 4), (2, 5)])
K4_PLANAR = Embedding.build(complete(4), rotation={0: [1, 2, 3], 1: [0, 3, 2],
                                                   2: [0, 1, 3], 3: [0, 2, 1]})


def test_k4_facial_triangle_contractible():
    an = classify_cycle(complete(4), K4_PLANAR, [0, 1, 2])
    c = an.classification
    assert (c.sidedness, c.separating, c.contractible) == ("two-sided", True, True)
    assert c.disk_side != "none"


def test_c5_sphere_bounds_disk():
    c5 = cycle_graph(5)
    an = classify_cycle(c5, default_embedding(c5), [0, 1, 2, 3, 4])
    assert an.classification.contractible
    # both faces are C itself; the outer one is taken on the left side
    assert an.classification.disk_side == "right"
    assert an.side_vertices(an.int_side()) - set(an.cycle) == frozenset()
    assert an.faces_inside() == ()


def test_one_sided_cycle_in_negative_triangle():
    c3 = cycle_graph(3)
    emb = Embedding.build(c3, signature={(0, 1): -1})
    an = classify_cycle(c3, emb, [0, 1, 2])
    assert an.classification.sidedness == "one-sided"
    assert not an.classification.separating and not an.classification.contractible


def test_k5_minimum_nonorientable_embedding_has_one_sided_cycle():
    from surface_minors.genus_search import cached_profile
    k5 = complete(5)
    emb = cached_profile(k5).nonorientable_witness
    cycles, _ = enumerate_cycles(k5)
    assert any(emb.cycle_signature(c) < 0 for c in cycles)


def test_cut_separating_splits_genus():
    an = classify_cycle(complete(4), K4_PLANAR, [0, 1, 2])
    cut = an.cut
    pieces = cut.pieces()
    assert len(pieces) == 2
    assert sorted(p.embedding.euler_genus() for p in pieces) == [0, 0]
    assert total_genus(cut) == K4_PLANAR.euler_genus()


def test_cut_one_sided_drops_genus_by_one():
    c3 = cycle_graph(3)
    emb = Embedding.build(c3, signature={(0, 1): -1})
    cut = cut_along(c3, emb, [0, 1, 2])
    assert cut.graph.n == 6 and cut.graph.m == 6
    assert len(cut.copies) == 1 and len(cut.copies[0]) == 6
    assert total_genus(cut) == 0


def projective_k6() -> Embedding:
    """The 10-triangle embedding of K6 in the projective plane (the
    antipodal quotient of the icosahedron)."""
    k6 = complete(6)
    rot = {0: (1, 2, 4, 5, 3), 1: (0, 2, 5, 4, 3), 2: (0, 1, 5, 3, 4),
           3: (0, 1, 4, 2, 5), 4: (0, 2, 3, 1, 5), 5: (0, 3, 2, 1, 4)}
    neg = {(0, 1), (0, 3), (0, 5), (1, 2), (1, 5), (4, 5)}
    emb = Embedding.build(k6, rotation=rot,
                          signature={e: (-1 if e in neg else 1) for e in k6.edges})
    assert emb.euler_genus() == 1
    assert len(emb.faces()) == 10
    return emb


def test_cut_one_sided_k6_projective():
    k6 = complete(6)
    emb = projective_k6()
    cycles, _ = enumerate_cycles(k6)
    one_sided = next(c for c in cycles if emb.cycle_signature(c) < 0)
    cut = cut_along(k6, emb, one_sided)
    assert total_genus(cut) == 0


def test_cut_all_small_graph_invariants():
    rng = random.Random(4)
    graphs = [g for g in connected_graphs_up_to(6) if g.m >= 3]
    for g in rng.sample(graphs, 18):
        cycles, _ = enumerate_cycles(g)
        if not cycles:
            continue
        embs = itertools.islice(all_embeddings(g), 40)
        for emb in embs:
            genus = emb.euler_genus()
            for cyc in cycles:
                an = classify_cycle(g, emb, cyc)
                c = an.classification
                if c.contractible:
                    assert c.separating
                if c.separating:
                    assert c.sidedness == "two-sided"
                # classifying builds neither the normalized embedding nor the cut
                assert "normalized" not in an.__dict__ and "cut" not in an.__dict__
                cut = an.cut
                tg = total_genus(cut)
                if c.separating:
                    assert tg == genus
                elif c.sidedness == "two-sided":
                    assert tg <= genus - 2
                else:
                    assert tg <= genus - 1
                if c.sidedness == "two-sided":
                    _check_sides_against_cut(an, cut)


def _check_sides_against_cut(an, cut):
    """The counted sides of a two-sided cycle agree with the cut graph:
    separating iff the two copies of C fall in different pieces, each
    side's genus is its piece's Euler genus, each side's vertices and
    edges are its piece's, mapped back to the original graph, and so are
    the faces inside a contractible cycle."""
    pieces = {}
    for piece in cut.pieces():
        for side, ids in (("left", cut.left_ids), ("right", cut.right_ids)):
            if ids[an.cycle[0]] in piece.graph.vertices:
                pieces[side] = piece
    assert an.classification.separating == (pieces["left"] is not pieces["right"])
    for side, genus in (("left", an.left_genus), ("right", an.right_genus)):
        piece = pieces[side]
        if an.classification.separating:
            assert genus == piece.embedding.euler_genus()
        else:
            assert genus is None
        assert an.side_vertices(side) == {piece.origin[v] for v in piece.graph.vertices}
        assert an.side_edges(side) == {edge_key(piece.origin[u], piece.origin[v])
                                       for u, v in piece.graph.edges}
    if an.classification.contractible:
        # the inside faces are the Int piece's faces less one cap and
        # less the faces made only of C's edges
        side = an.int_side()
        piece = pieces[side]
        ids = cut.left_ids if side == "left" else cut.right_ids
        ring = list(zip(an.cycle, an.cycle[1:] + an.cycle[:1]))
        cap = FaceWalk(tuple((ids[a], ids[b]) for a, b in ring)).key
        walks = list(piece.embedding.faces())
        walks.remove(next(w for w in walks if w.key == cap))
        mapped = [FaceWalk(tuple((piece.origin[a], piece.origin[b]) for a, b in w.darts))
                  for w in walks]
        c_edges = {edge_key(a, b) for a, b in ring}
        assert sorted(f.key for f in an.faces_inside()) == \
            sorted(f.key for f in mapped if not f.edge_set <= c_edges)


def test_counted_sides_agree_with_cut():
    # richer topology than the small-graph sweep: planar, projective,
    # toroidal and random high-genus embeddings, and a disconnected cut
    # graph such as are_homotopic classifies in
    rng = random.Random(5)
    g33, e33 = torus_grid(3, 3)
    cases = [(complete(4), e) for e in all_embeddings(complete(4))]
    cases += [(complete(6), projective_k6()), (g33, e33)]
    for g in (complete(5), complete(6), complete_bipartite(3, 4), wheel(6)):
        cases += [(g, random_embedding(g, rng)) for _ in range(8)]
    cut = cut_along(g33, e33, [0, 1, 4, 3])
    assert not cut.graph.is_connected()
    cases.append((cut.graph, cut.embedding))
    kinds = set()
    for g, emb in cases:
        for cyc in enumerate_cycles(g)[0]:
            an = classify_cycle(g, emb, cyc)
            c = an.classification
            if c.sidedness == "two-sided":
                _check_sides_against_cut(an, an.cut)
                kinds.add((c.separating, c.contractible))
    assert kinds == {(True, True), (True, False), (False, False)}


def test_classify_torus_grid_against_winding_numbers():
    # on the torus every simple closed curve is two-sided, and it is
    # contractible, and separating, exactly when it winds zero times
    # around both generators; the disk side then has genus 0, the other 2
    g, emb = torus_grid(3, 4)
    cycles, exact = enumerate_cycles(g)
    assert exact
    contractible = 0
    for cyc in cycles:
        an = classify_cycle(g, emb, cyc)
        c = an.classification
        trivial = torus_winding(list(cyc), 3, 4) == (0, 0)
        assert (c.sidedness, c.separating, c.contractible) == ("two-sided", trivial, trivial)
        if trivial:
            assert sorted((an.left_genus, an.right_genus)) == [0, 2]
            assert (an.left_genus if c.disk_side == "left" else an.right_genus) == 0
            contractible += 1
    assert 0 < contractible < len(cycles)


def _oracle_side(want, side: str):
    """The vertices, edges and faces of one side of a two-sided cycle by
    the union-find oracle's roots: C and the off-cycle vertices with the
    side's root, C's edges and the edges whose end nodes have it, and
    the faces whose first edge off C has it."""
    cset = set(want.cycle)
    roots = want.roots
    root = roots[side]

    def end_root(u, v):
        return roots[want.end_side[(u, v)] if u in cset else u]

    vertices = cset | {v for v in want.graph.vertices if v not in cset and roots[v] == root}
    edges = {e for e in want.graph.edges if e in want.edges or end_root(*e) == root}
    faces = tuple(f for f in want.embedding.faces()
                  if next((end_root(a, b) for a, b in f.darts
                           if edge_key(a, b) not in want.edges), None) == root)
    return vertices, edges, faces


def _grid_embedding(rows: int, cols: int) -> Embedding:
    g = grid(rows, cols)
    pos = {v: divmod(v, cols) for v in g.vertices}
    return Embedding.build(g, rotations_from_positions(g, pos))


def test_classify_cycle_matches_union_find_oracle():
    # field for field against the union-find classifier: every cycle of
    # the 4x4 torus grid; every cycle of planar grids, both ways round,
    # with and without the outer face named; random signed embeddings
    # (one-sided cycles, chords, nonseparating cycles); and a cut graph
    # with a component the cycle does not touch
    rng = random.Random(13)
    g44, e44 = torus_grid(4, 4)
    cases = [(g44, e44, c, None) for c in enumerate_cycles(g44)[0]]
    assert len(cases) == 14_704
    for rows, cols in ((3, 3), (3, 5), (4, 4)):
        emb = _grid_embedding(rows, cols)
        outer = max(emb.faces(), key=lambda f: f.size)
        for c in enumerate_cycles(emb.graph)[0]:
            for cyc in (c, c[::-1]):
                cases += [(emb.graph, emb, cyc, None), (emb.graph, emb, cyc, outer)]
    for g in (complete(4), complete(5), complete_bipartite(3, 3), complete(6), petersen()):
        cycles = enumerate_cycles(g)[0]
        for _ in range(3):
            emb = random_embedding(g, rng)
            cases += [(g, emb, c, None) for c in cycles]
    g33, e33 = torus_grid(3, 3)
    cut = cut_along(g33, e33, [0, 1, 4, 3])
    cases += [(cut.graph, cut.embedding, c, None) for c in enumerate_cycles(cut.graph)[0]]

    kinds = set()
    component_genus = {}
    for g, emb, cyc, outer in cases:
        got = classify_cycle(g, emb, cyc, outer_face=outer)
        want = union_find_classify(g, emb, cyc, outer_face=outer)
        assert (got.cycle, got.classification, got.end_side, got.flips, got.edges,
                got.left_genus, got.right_genus) == \
            (want.cycle, want.classification, want.end_side, want.flips, want.edges,
             want.left_genus, want.right_genus), cyc
        assert got.edge_mask == sum(1 << g._edge_index[e] for e in want.edges)
        c = got.classification
        if c.separating:
            # one side is counted, the other read off the component's genus
            key = id(emb), cyc[0]
            if key not in component_genus:
                component_genus[key] = _component_genus(emb, cyc[0])
            assert got.left_genus + got.right_genus == component_genus[key], cyc
        assert (got.left_faces is None) == (want.roots is None)
        if want.roots is not None:
            for side in ("left", "right"):
                vertices, edges, faces = _oracle_side(want, side)
                assert (got.side_vertices(side), got.side_edges(side)) == (vertices, edges), cyc
                if c.contractible and side == c.disk_side:
                    mask = sum(1 << g._edge_index[e] for e in edges)
                    assert (got.int_side(), got.int_edge_mask, got.faces_inside()) == \
                        (side, mask, faces), cyc
        kinds.add((c.sidedness, c.separating, c.contractible))
        if any(w in want.cycle for _, w in want.end_side):
            kinds.add("chord")
        if want.roots is not None and len(set(want.roots.values())) > 2:
            kinds.add("untouched component")
    assert kinds == {("one-sided", False, False), ("two-sided", False, False),
                     ("two-sided", True, False), ("two-sided", True, True),
                     "chord", "untouched component"}


def _component_genus(emb: Embedding, v: int) -> int:
    """2 - V + E - F for the component of the graph that holds v."""
    g = emb.graph
    comp = next(c for c in g.components if v in c)
    edges = [e for e in g.edges if e[0] in comp]
    faces = [f for f in emb.faces() if f.vertex_set <= comp]
    return 2 - len(comp) + len(edges) - len(faces)


def test_classifying_every_cycle_traces_the_faces_at_most_once(monkeypatch):
    # classification reads the faces through the embedding's face-side
    # table, which traces them once
    g, emb = torus_grid(4, 4)
    faces = Embedding.faces
    calls = []
    monkeypatch.setattr(Embedding, "faces", lambda self: calls.append(self) or faces(self))
    for cyc in enumerate_cycles(g)[0]:
        classify_cycle(g, emb, cyc)
    assert len(calls) <= 1


def test_classify_cycle_errors_match_union_find_oracle():
    # the named errors of check_cycle, checked in its order: length, then
    # a repeated vertex, then a missing edge, the closing one included
    k4, prism = complete(4), Embedding.build(PRISM)
    bad = [(complete(5), K4_PLANAR, [0, 1, 2],
            "classify_cycle: embedding is for a different graph"),
           (k4, K4_PLANAR, [0, 1, 5], "not a cycle (missing edge 1-5)"),
           (k4, K4_PLANAR, [0, 1, 2, 1], "not a cycle (repeated vertex): (0, 1, 2, 1)"),
           (k4, K4_PLANAR, [0, 1], "not a cycle (length 2 < 3): (0, 1)"),
           (k4, K4_PLANAR, [0, 1, 0], "not a cycle (length 2 < 3): (0, 1)"),
           (PRISM, prism, [], "not a cycle (length 0 < 3): ()"),
           (PRISM, prism, [0, 0], "not a cycle (length 1 < 3): (0,)"),
           (PRISM, prism, [0, 5, 0, 2], "not a cycle (repeated vertex): (0, 5, 0, 2)"),
           (PRISM, prism, [0, 1, 2, 0, 0], "not a cycle (repeated vertex): (0, 1, 2, 0)"),
           (PRISM, prism, [0, 4, 3], "not a cycle (missing edge 0-4)"),
           (PRISM, prism, [0, 1, 2, 5], "not a cycle (missing edge 5-0)")]
    for g, emb, cyc, message in bad:
        errors = []
        for classify in (classify_cycle, union_find_classify):
            with pytest.raises(ValueError) as info:
                classify(g, emb, cyc)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1] and errors[0][1] == message, cyc
    # a closing vertex that repeats the first is accepted and dropped
    for cyc in ([0, 1, 2], [0, 1, 4, 3], [0, 3, 5, 2]):
        closed, want = classify_cycle(PRISM, prism, cyc + cyc[:1]), classify_cycle(PRISM, prism, cyc)
        assert (closed.cycle, closed.classification, closed.left_genus, closed.right_genus) == \
            (tuple(cyc), want.classification, want.left_genus, want.right_genus)


def test_intersection_components_match_graph_components():
    # the runs found along C against the components of the intersection
    # graph, and each run's order against C's, for every ordered pair of
    # cycles of K5 and every cycle against every face of a planar grid
    k5 = complete(5)
    cycles = enumerate_cycles(k5)[0]
    pairs = [(c, set(d), {edge_key(a, b) for a, b in zip(d, d[1:] + d[:1])})
             for c in cycles for d in cycles]
    emb = _grid_embedding(3, 4)
    pairs += [(c, f.vertex_set, f.edge_set)
              for c in enumerate_cycles(emb.graph)[0] for f in emb.faces()]
    for cyc, vertices, edges in pairs:
        shared_v = vertices & set(cyc)
        shared_e = edges & {edge_key(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
        want = [(comp, {e for e in shared_e if e[0] in comp})
                for comp in Graph.build(shared_v, shared_e).components]
        runs = _intersection_components(cyc, vertices, edges)
        assert [(frozenset(run), es) for run, es in runs] == want, (cyc, vertices)
        # each run lists its vertices in their order along C: a path
        # whose edges are its consecutive pairs, unless it is all of C
        for run, es in runs:
            steps = {edge_key(a, b) for a, b in zip(run, run[1:])}
            if len(es) == len(run):
                assert run == cyc and es == steps | {edge_key(cyc[-1], cyc[0])}
            else:
                at = cyc.index(run[0])
                assert run == tuple(cyc[(at + k) % len(cyc)] for k in range(len(run)))
                assert es == steps, (cyc, run)


def test_topology_checks_survive_optimize():
    script = textwrap.dedent("""
        from surface_minors import topology as t
        from surface_minors.embedding import Embedding
        from surface_minors.graph import Graph

        print("debug", __debug__)
        c3 = Graph.build(range(3), [(0, 1), (1, 2), (0, 2)])
        emb = Embedding.build(c3, signature={(0, 1): -1})
        an = t.classify_cycle(c3, emb, [0, 1, 2])
        checks = (lambda: t._normalizing_flips(emb, (0, 1, 2)),
                  an.faces_inside,
                  lambda: an.side_vertices("left"))
        for check in checks:
            try:
                check()
                print("passed")
            except t.TopologyError as exc:
                print("TopologyError", exc)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1:] == ["TopologyError cycle signature parity does not admit this normal form",
                         "TopologyError Int/Ext: cycle is not contractible",
                         "TopologyError sides: cycle is one-sided"]


def test_faces_inside_k4():
    an = classify_cycle(complete(4), K4_PLANAR, [0, 1, 2])
    inside = an.faces_inside()
    assert len(inside) == 3
    assert all(3 in f.vertex_set for f in inside)


def test_lemma_faces_are_cycles_inside_contractible():
    # 2-connected graphs: every face inside a contractible cycle is a cycle
    for g in connected_graphs_up_to(7):
        if g.m < 3 or g.n < 3:
            continue
        from surface_minors.graph import blocks
        blks, cuts = blocks(g)
        if len(blks) != 1 or cuts or blks[0].n != g.n:
            continue  # not 2-connected
        cycles, _ = enumerate_cycles(g)
        for emb in itertools.islice(all_embeddings(g), 12):
            for cyc in cycles[:6]:
                an = classify_cycle(g, emb, cyc)
                if an.is_contractible:
                    for f in an.faces_inside():
                        assert len(f.vertex_set) == len(f.darts)


def test_homotopy_prism_triangles():
    emb = planar_embedding(PRISM)
    region = are_homotopic(PRISM, emb, [0, 1, 2], [3, 4, 5])
    assert region is not None
    assert set(region.vertices) == set(range(6))


def test_homotopy_torus_bands():
    g, emb = torus_grid(3, 6)
    tri = lambda j: [6 * i + j for i in range(3)]
    region = are_homotopic(g, emb, tri(0), tri(1))
    assert region is not None and region.n == 6
    region2 = are_homotopic(g, emb, tri(0), tri(2))
    assert region2 is not None and region2.n == 9


def test_homotopy_nonhomotopic_on_torus():
    g, emb = torus_grid(3, 3)
    vertical = [0, 3, 6]
    horizontal = [0, 1, 2]
    # the two generators share one vertex; they cross, which is rejected
    with pytest.raises(TopologyError):
        are_homotopic(g, emb, vertical, horizontal)


def test_homotopy_rejects_bad_overlap():
    g, emb = torus_grid(3, 6)
    tri = lambda j: [6 * i + j for i in range(3)]
    with pytest.raises(TopologyError):
        are_homotopic(g, emb, tri(0), tri(0))
    # two cycles sharing two separate paths are rejected
    with pytest.raises(TopologyError, match="separate pieces"):
        are_homotopic(PRISM, planar_embedding(PRISM), [0, 1, 4, 3], [0, 2, 1, 4, 5, 3])


def _homotopy_outcome(decide, g, emb, c1, c2):
    try:
        region = decide(g, emb, c1, c2)
    except ValueError as exc:
        return type(exc), str(exc)
    return None if region is None else (region.vertices, region.edges)


def test_homotopy_matches_double_cut_oracle():
    # the same region, None or error as cutting along both cycles and
    # counting copies: every ordered pair of two-sided cycles of the
    # prism and two planar grids, and seeded samples of pairs from two
    # torus grids and from orientable and nonorientable random
    # embeddings of K5 and K3,4
    rng = random.Random(15)
    cases = [(g, planar_embedding(g), None) for g in (PRISM, grid(3, 3), grid(3, 4))]
    cases += [(*torus_grid(rows, cols), 1000) for rows, cols in ((3, 3), (3, 4))]
    for g in (complete(5), complete_bipartite(3, 4)):
        for signed in (False, False, True, True):
            emb = random_embedding(g, rng)
            cases.append((g, emb if signed else Embedding.build(g, emb.rot), 250))
    outcomes = collections.Counter()
    for g, emb, sample in cases:
        two_sided = [c for c in enumerate_cycles(g)[0] if emb.cycle_signature(c) > 0]
        n = len(two_sided)
        for k in range(n * n) if sample is None else rng.sample(range(n * n), sample):
            c1, c2 = two_sided[k // n], two_sided[k % n]
            got = _homotopy_outcome(are_homotopic, g, emb, c1, c2)
            assert got == _homotopy_outcome(double_cut_homotopy, g, emb, c1, c2), (c1, c2)
            if got is None or isinstance(got[0], type):
                outcomes["none" if got is None else "error"] += 1
            else:
                shared = len(set(c1) & set(c2))
                outcomes["disjoint" if not shared else "vertex" if shared == 1 else "path"] += 1
    assert set(outcomes) == {"none", "error", "disjoint", "vertex", "path"}
    assert sum(outcomes.values()) >= 5000
    assert outcomes["disjoint"] + outcomes["vertex"] + outcomes["path"] >= 500, outcomes


def test_homotopy_symmetric_on_disjoint_pairs():
    g, emb = torus_grid(3, 6)
    tri = lambda j: [6 * i + j for i in range(3)]
    for a, b in itertools.combinations(range(0, 6, 2), 2):
        r1 = are_homotopic(g, emb, tri(a), tri(b))
        r2 = are_homotopic(g, emb, tri(b), tri(a))
        assert (r1 is None) == (r2 is None)


def test_theta_two_contractible_implies_third():
    # three internally disjoint x-y paths: if two of the three cycles are
    # contractible, so is the third
    theta = Graph.build(range(5), [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)])
    count = 0
    for emb in all_embeddings(theta):
        c01 = [0, 1, 4, 2]
        c02 = [0, 1, 4, 3]
        c12 = [0, 2, 4, 3]
        flags = [classify_cycle(theta, emb, c).is_contractible
                 for c in (c01, c02, c12)]
        if sum(flags) >= 2:
            assert all(flags)
            count += 1
    assert count > 0
