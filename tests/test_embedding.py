import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from surface_minors.graph import Graph, GraphError, edge_key
from surface_minors.embedding import (Embedding, EmbeddingError, FaceWalk, dart, dart_ends,
                                      default_embedding, random_embedding)
from conftest import complete, cycle_graph, path_graph, petersen, torus_grid
from oracles import all_rotation_signatures, naive_face_count, naive_is_orientable


def random_connected(rng, max_n=7, extra=6):
    n = rng.randrange(2, max_n + 1)
    edges = {(i, rng.randrange(i)) for i in range(1, n)}
    for _ in range(rng.randrange(0, extra)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph.build(range(n), edges)


def test_c3_two_faces_of_size_three():
    emb = default_embedding(cycle_graph(3))
    assert sorted(f.size for f in emb.faces()) == [3, 3]
    assert emb.euler_genus() == 0


def test_k4_tetrahedral_faces():
    k4 = complete(4)
    emb = Embedding.build(k4, rotation={0: [1, 2, 3], 1: [0, 3, 2],
                                        2: [0, 1, 3], 3: [0, 2, 1]})
    assert sorted(f.size for f in emb.faces()) == [3, 3, 3, 3]
    assert emb.euler_genus() == 0


def test_tree_single_face():
    for g in (path_graph(5), Graph.build(range(5), [(0, i) for i in range(1, 5)])):
        emb = default_embedding(g)
        faces = emb.faces()
        assert len(faces) == 1 and faces[0].size == 2 * g.m
        assert emb.euler_genus() == 0


def test_negative_triangle_projective():
    emb = Embedding.build(cycle_graph(3), signature={(0, 1): -1})
    assert [f.size for f in emb.faces()] == [6]
    assert emb.euler_genus() == 1
    assert not emb.is_orientable()


def test_rotation_validation():
    g = cycle_graph(3)
    with pytest.raises(EmbeddingError):
        Embedding.build(g, rotation={0: [1, 1]})
    with pytest.raises(EmbeddingError):
        Embedding.build(g, signature={(0, 1): 2})
    with pytest.raises(EmbeddingError):
        Embedding.build(g, signature={(0, 9): 1})


def test_euler_genus_requires_connected():
    g = Graph.build(range(4), [(0, 1), (2, 3)])
    with pytest.raises(EmbeddingError):
        default_embedding(g).euler_genus()


def test_local_change_involution_and_signature_flip():
    g = complete(4)
    emb = default_embedding(g)
    lc = emb.local_change(2)
    assert lc.local_change(2) == emb
    for (u, v), s in lc.signature:
        expected = -1 if 2 in (u, v) else 1
        assert s == expected
    rev = tuple(reversed(lc.rot[2]))
    rotations = {rev[i:] + rev[:i] for i in range(len(rev))}
    assert emb.rot[2] in rotations  # inverse cyclic order


def test_local_change_degree_one_vertex():
    g = path_graph(2)
    emb = default_embedding(g)
    lc = emb.local_change(0)
    assert lc.rot[0] == emb.rot[0]  # single-element cyclic order
    assert lc.sig[(0, 1)] == -1


def test_cycle_signature_examples():
    g = cycle_graph(4)
    emb = default_embedding(g)
    cyc = [0, 1, 2, 3]
    assert emb.cycle_signature(cyc) == 1
    one_neg = Embedding.build(g, signature={(0, 1): -1})
    assert one_neg.cycle_signature(cyc) == -1
    two_neg = Embedding.build(g, signature={(0, 1): -1, (1, 2): -1})
    assert two_neg.cycle_signature(cyc) == 1
    assert two_neg.is_orientable()


def test_cycle_signature_invariant_under_local_change():
    rng = random.Random(3)
    g = complete(4)
    cyc = [0, 1, 2]
    for _ in range(20):
        emb = random_embedding(g, rng)
        s = emb.cycle_signature(cyc)
        for v in g.vertices:
            assert emb.local_change(v).cycle_signature(cyc) == s


def test_cycle_validation():
    g = complete(4)
    emb = default_embedding(g)
    with pytest.raises(EmbeddingError):
        emb.cycle_signature([0, 1])
    with pytest.raises(EmbeddingError):
        emb.cycle_signature([0, 1, 1])


def test_orientability():
    g = complete(4)
    assert default_embedding(g).is_orientable()
    emb = Embedding.build(g, signature={(0, 1): -1})
    assert not emb.is_orientable()


def test_is_orientable_matches_naive_oracle():
    # seeded random embeddings of random graphs, disconnected ones and
    # isolated vertices included
    rng = random.Random(17)
    kinds = set()
    for _ in range(400):
        n = rng.randrange(1, 9)
        g = Graph.build(range(n), [(a, b) for a in range(n) for b in range(a + 1, n)
                                   if rng.random() < 0.35])
        emb = random_embedding(g, rng)
        got = emb.is_orientable()
        assert got == naive_is_orientable(g, emb.sig)
        kinds.add((got, g.is_connected(), min(map(g.degree, g.vertices)) == 0))
    # a connected graph with an isolated vertex is one vertex, so orientable
    assert kinds == set(itertools.product((True, False), repeat=3)) - {(False, True, True)}


def test_inequivalent_embeddings_of_k4():
    k4 = complete(4)
    planar = Embedding.build(k4, rotation={0: [1, 2, 3], 1: [0, 3, 2],
                                           2: [0, 1, 3], 3: [0, 2, 1]})
    toroidal = default_embedding(k4)  # sorted rotations give genus 2
    assert toroidal.euler_genus() != planar.euler_genus()
    # no set of local changes maps one to the other
    assert all(planar.local_change_set(w) != toroidal
               for r in range(k4.n + 1) for w in itertools.combinations(k4.vertices, r))


def test_face_sizes_sum_matches_naive_oracle():
    rng = random.Random(1)
    for _ in range(150):
        g = random_connected(rng)
        emb = random_embedding(g, rng)
        faces = emb.faces()
        assert sum(f.size for f in faces) == 2 * g.m
        assert len(faces) == naive_face_count(g, emb.rot, emb.sig)


def test_faces_and_the_face_side_table_share_one_set_of_walks():
    # faces() is the table's walks in key order, traced once: each face is
    # the walk the table numbers, with the edges and vertices it records
    rng = random.Random(11)
    for _ in range(60):
        g = random_connected(rng)
        emb = random_embedding(g, rng)
        table = emb._face_sides
        vbit = {v: 1 << k for k, v in enumerate(g.vertices)}
        ebit = {e: 1 << i for i, e in enumerate(g.edges)}
        for f, k in zip(emb.faces(), emb._face_numbers, strict=True):
            assert f is emb._orbit_walks[k]
            assert table.edges[k] == sum(ebit[e] for e in f.edge_set)
            assert table.vertices[k] == sum(vbit[v] for v in f.vertex_set)


def test_dart_table_numbers_darts_from_the_edge_index():
    for g in (complete(7), petersen(), torus_grid(3, 3)[0]):
        pairs = [(v, w) for v in g.vertices for w in g.neighbors(v)]
        darts = [dart(g, v, w) for v, w in pairs]
        assert darts == [2 * g._edge_index[edge_key(v, w)] + (v > w) for v, w in pairs]
        assert sorted(darts) == list(range(2 * g.m))
        assert dart_ends(g, darts) == tuple(pairs)
        non_edges = [(v, w) for v, w in itertools.permutations(g.vertices, 2)
                     if w not in g.neighbors(v)]
        for v, w in non_edges + [(0, 0), (0, max(g.vertices) + 1)]:
            with pytest.raises(GraphError):
                dart(g, v, w)


def test_face_walk_canonical_key():
    w1 = FaceWalk(((0, 1), (1, 2), (2, 0)))
    w2 = FaceWalk(((2, 0), (0, 1), (1, 2)))
    w3 = FaceWalk(((1, 0), (0, 2), (2, 1)))  # reversal
    assert w1.key == w2.key == w3.key
    assert len(w1.vertex_set) == len(w1.darts)


def _least_of_all_rotations(darts: tuple) -> tuple:
    """The canonical key by its definition: the least rotation of the walk
    or of its reversal, every rotation built."""
    rev = tuple((b, a) for a, b in reversed(darts))
    return min(seq[i:] + seq[:i] for seq in (darts, rev) for i in range(len(seq)))


def test_face_key_is_the_least_of_all_rotations():
    # a nonorientable facial walk can pass a dart twice; its key must
    # try every position holding the least dart, here the second one
    twice = FaceWalk(((0, 1), (1, 3), (3, 0), (0, 1), (1, 2), (2, 0)))
    assert twice.key == _least_of_all_rotations(twice.darts) == twice.darts[3:] + twice.darts[:3]
    rng = random.Random(5)
    repeated = 0
    for g in (complete(6), complete(7)):
        for _ in range(20):
            emb = random_embedding(g, rng)
            for e in (emb, Embedding.build(g, emb.rot)):
                for f in e.faces():
                    assert f.key == _least_of_all_rotations(f.darts)
                    repeated += f.darts.count(min(f.darts)) > 1
    assert repeated


def test_embedding_json_roundtrip_bit_exact():
    rng = random.Random(9)
    for _ in range(20):
        g = random_connected(rng)
        emb = random_embedding(g, rng)
        text = emb.to_json()
        back = Embedding.from_json(text)
        assert back == emb
        assert back.to_json() == text


def test_all_rotation_signatures_counts():
    # C3: one rotation system, 2 cotree patterns
    assert sum(1 for _ in all_rotation_signatures(cycle_graph(3))) == 2
    # K4: (3-1)!^4 rotations x 2^3 patterns
    assert sum(1 for _ in all_rotation_signatures(complete(4))) == 16 * 8


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_genus_invariants_random(seed):
    rng = random.Random(seed)
    g = random_connected(rng)
    emb = random_embedding(g, rng)
    genus = emb.euler_genus()
    assert genus >= 0
    if emb.is_orientable():
        assert genus % 2 == 0
    for v in g.vertices:
        assert emb.local_change(v).euler_genus() == genus


def test_single_vertex_graph():
    g = Graph.build([0], [])
    emb = default_embedding(g)
    assert emb.euler_genus() == 0
    assert len(emb.faces()) == 1
