import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from surface_minors.graph import (Graph, GraphError, _Refined, apply_minor_op, blocks,
                                  contract_edge, delete_edge, delete_vertex,
                                  dedupe_isomorphic, graph6_decode, graph6_encode,
                                  graph_from_json, graph_to_json, group_isomorphic,
                                  is_isomorphic, one_step_minors, parse_graph)
from conftest import (complete, complete_bipartite, cycle_graph, minors_per_class, path_graph,
                      petersen)
from oracles import adjacency_contract, vf2_classes


def test_build_rejects_loops_and_undeclared_endpoints():
    with pytest.raises(GraphError):
        Graph.build([0, 1], [(0, 0)])
    with pytest.raises(GraphError):
        Graph.build([0, 1], [(0, 2)])


def test_build_merges_parallel_edges():
    g = Graph.build([0, 1], [(0, 1), (1, 0)])
    assert g.m == 1


def test_contract_triangle_gives_k2():
    c3 = cycle_graph(3)
    for e in c3.edges:
        got = contract_edge(c3, *e)
        assert (got.n, got.m) == (2, 1)


def test_delete_vertex_k5_gives_k4():
    k5 = complete(5)
    for v in k5.vertices:
        assert is_isomorphic(delete_vertex(k5, v), complete(4))


def test_contract_k33_edge_matches_matrix_oracle():
    k33 = complete_bipartite(3, 3)
    e = k33.edges[0]
    got = contract_edge(k33, *e)
    assert (got.n, got.m) == (5, 8)
    assert (got.n, got.m) == adjacency_contract(k33, *e)


def test_contraction_keeps_lower_endpoint():
    g = Graph.build([3, 7, 9], [(3, 7), (7, 9)])
    got = contract_edge(g, 7, 9)
    assert set(got.vertices) == {3, 7}


def test_minor_op_missing_element_rejected():
    g = path_graph(3)
    with pytest.raises(GraphError, match="9"):
        delete_vertex(g, 9)
    with pytest.raises(GraphError, match="0, 2"):
        delete_edge(g, 0, 2)
    with pytest.raises(GraphError):
        apply_minor_op(g, ("contract-edge", (0, 2)))


def test_one_step_minors_k3_counts():
    out = one_step_minors(cycle_graph(3))
    assert len(out) == 9  # 3 vertex deletions + 3 edge deletions + 3 contractions


def test_one_step_minors_k5_dedup_three_classes():
    out = minors_per_class(complete(5))
    assert len(out) == 3
    kinds = sorted(op[0] for op, _ in out)
    assert kinds == ["contract-edge", "delete-edge", "delete-vertex"]


def test_one_step_minor_of_single_vertex():
    g = Graph.build([0], [])
    out = one_step_minors(g)
    assert len(out) == 1 and out[0][1].n == 0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_minor_ops_never_grow(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 9)
    edges = {(i, rng.randrange(i)) for i in range(1, n)}
    for _ in range(rng.randrange(0, 8)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    g = Graph.build(range(n), edges)
    for op, m in one_step_minors(g):
        assert m.n <= g.n and m.m <= g.m
        assert apply_minor_op(g, op) == m


def test_blocks_two_triangles():
    g = Graph.build(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    blks, cuts = blocks(g)
    assert len(blks) == 2 and cuts == frozenset({2})


def test_blocks_k5_single():
    blks, cuts = blocks(complete(5))
    assert len(blks) == 1 and not cuts


def test_blocks_path():
    blks, cuts = blocks(path_graph(4))
    assert len(blks) == 3 and cuts == frozenset({1, 2})


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_blocks_partition_edges(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 10)
    edges = {(i, rng.randrange(i)) for i in range(1, n)}
    for _ in range(rng.randrange(0, 6)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    g = Graph.build(range(n), edges)
    blks, cuts = blocks(g)
    assert sum(b.m for b in blks) == g.m
    seen = [e for b in blks for e in b.edges]
    assert sorted(seen) == sorted(g.edges)
    # cutvertices are exactly the vertices in >= 2 blocks
    counts = {}
    for b in blks:
        for v in b.vertices:
            counts[v] = counts.get(v, 0) + 1
    assert cuts == frozenset(v for v, c in counts.items() if c > 1)


def test_graph6_roundtrip_known_strings():
    k5 = complete(5)
    assert graph6_encode(k5) == "D~{"
    assert graph6_decode("D~{") == k5
    k33 = complete_bipartite(3, 3)
    assert graph6_decode(graph6_encode(k33)) == k33
    assert graph6_decode(">>graph6<<D~{") == k5


def test_graph6_rejects_bad_bytes_with_offset():
    with pytest.raises(GraphError, match="offset"):
        graph6_decode("D~\x19")
    with pytest.raises(GraphError, match="truncated"):
        graph6_decode("D~")


def test_json_roundtrip():
    g = complete_bipartite(2, 3)
    assert graph_from_json(graph_to_json(g)) == g
    text = graph_to_json(g)
    assert graph_to_json(graph_from_json(text)) == text  # canonical fixed point
    assert parse_graph(text) == g
    assert parse_graph(graph6_encode(g)) == g


def test_json_preserves_nonstandard_ids():
    g = Graph.build([4, 7, 9], [(4, 7), (7, 9)])
    back = graph_from_json(graph_to_json(g))
    assert back == g


def test_dedupe_isomorphic():
    gs = [complete(4), cycle_graph(4), complete(4), path_graph(4)]
    out = dedupe_isomorphic(gs)
    assert len(out) == 3


def test_group_isomorphic_settles_equal_fingerprints():
    # C6 and 2C3, like K3,3 and the prism, are regular graphs that colour
    # refinement cannot tell apart: the matcher splits them
    two_triangles = Graph.build(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    prism = Graph.build(range(6), list(two_triangles.edges) + [(0, 3), (1, 4), (2, 5)])
    c6_shuffled = Graph.build(range(6), [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    gs = [cycle_graph(6), two_triangles, complete_bipartite(3, 3), c6_shuffled, prism,
          complete_bipartite(3, 3)]
    assert group_isomorphic(gs) == [[0, 3], [1], [2, 5], [4]]
    assert dedupe_isomorphic(gs) == [gs[0], gs[1], gs[2], gs[4]]
    assert is_isomorphic(gs[0], gs[3]) and not is_isomorphic(gs[0], gs[1])


def _relabeled(g: Graph, rng: random.Random) -> Graph:
    """A copy of g on shuffled, non-contiguous vertex ids."""
    ids = rng.sample(range(3 * g.n + 1), g.n)
    lab = dict(zip(g.vertices, ids))
    return Graph.build(ids, [(lab[u], lab[v]) for u, v in g.edges])


def _join(g1: Graph, g2: Graph, wedge: bool) -> Graph:
    """Disjoint union of g1 and g2, or with vertex 0 of each identified."""
    lift = {v: 0 if wedge and v == 0 else v + g1.n for v in g2.vertices}
    return Graph.build(list(g1.vertices) + list(lift.values()),
                       list(g1.edges) + [(lift[u], lift[v]) for u, v in g2.edges])


K5, K33 = complete(5), complete_bipartite(3, 3)
# the graphs of the certify-minors benchmark panel
CERTIFY_PANEL = {
    "K5": K5, "K3,3": K33, "K6": complete(6), "K3,4": complete_bipartite(3, 4),
    "Petersen": petersen(),
    "2K5": _join(K5, K5, False), "K5+K3,3": _join(K5, K33, False),
    "2K3,3": _join(K33, K33, False), "K5.K5": _join(K5, K5, True),
    "K5.K3,3": _join(K5, K33, True), "K3,3.K3,3": _join(K33, K33, True),
}


@pytest.mark.parametrize("name", sorted(CERTIFY_PANEL))
def test_group_isomorphic_matches_vf2_on_panel_minors(name):
    minors = [m for _, m in one_step_minors(CERTIFY_PANEL[name])]
    assert group_isomorphic(minors) == vf2_classes(minors)
    rng = random.Random(name)
    mixed = minors + [_relabeled(m, rng) for m in rng.sample(minors, len(minors))]
    assert group_isomorphic(mixed) == vf2_classes(mixed)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_group_isomorphic_matches_vf2_on_random_batches(seed):
    # random regular graphs put non-isomorphic graphs with one colour class
    # into a bucket, so the matcher has to reject as well as accept
    rng = random.Random(seed)
    batch = []
    for _ in range(rng.randrange(2, 7)):
        if rng.random() < 0.3:
            d, n = rng.choice([(2, 8), (3, 8), (3, 10), (4, 9)])
            g = Graph.build(range(n), nx.random_regular_graph(d, n, seed=rng.randrange(2**32)).edges)
        else:
            n, p = rng.randrange(4, 10), rng.random()
            g = Graph.build(range(n), [e for e in itertools.combinations(range(n), 2)
                                       if rng.random() < p])
        batch += [g] + [_relabeled(g, rng) for _ in range(rng.randrange(3))]
    rng.shuffle(batch)
    assert group_isomorphic(batch) == vf2_classes(batch)


def _cayley_z4z4(steps: list[tuple[int, int]]) -> Graph:
    cells = [(i, j) for i in range(4) for j in range(4)]
    return Graph.build(range(16), [(4 * i + j, 4 * ((i + a) % 4) + (j + b) % 4)
                                   for i, j in cells for a, b in steps])


def test_group_isomorphic_splits_rook_graph_from_shrikhande():
    # both are strongly regular with parameters (16, 6, 2, 2), so colour
    # refinement leaves one class on each and gives them the same key
    rook = _cayley_z4z4([(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])
    shrikhande = _cayley_z4z4([(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)])
    assert _Refined(rook).key == _Refined(shrikhande).key
    rng = random.Random(16)
    gs = [rook, shrikhande, _relabeled(shrikhande, rng), _relabeled(rook, rng)]
    assert group_isomorphic(gs) == [[0, 3], [1, 2]] == vf2_classes(gs)


def test_group_isomorphic_petersen_against_relabeled_copy_and_prism():
    # the pentagonal prism is the other cubic graph on 10 vertices built
    # from two 5-cycles and a matching
    prism = Graph.build(range(10), [(i, (i + 1) % 5) for i in range(5)]
                        + [(i, i + 5) for i in range(5)]
                        + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    rng = random.Random(10)
    gs = [prism, petersen(), _relabeled(petersen(), rng), _relabeled(prism, rng)]
    assert group_isomorphic(gs) == [[0, 3], [1, 2]] == vf2_classes(gs)
    assert is_isomorphic(gs[1], gs[2]) and not is_isomorphic(gs[0], gs[1])
