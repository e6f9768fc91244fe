import itertools
import random

import pytest

from surface_minors.bounds import floor_log_43
from surface_minors.graph import Graph
from surface_minors.treedecomp import (TreeDecomposition, TreeDecompositionError,
                                       _decomposition_from_order, balanced_1_separation,
                                       balanced_separation_sequence,
                                       compute_tree_decomposition, min_fill_order, validate)
from conftest import grid
from oracles import (brute_force_treewidth, connected_graphs_up_to, naive_balanced_1_separation,
                     naive_separation_parts, subset_dp_treewidth)


def test_exact_width_against_elimination_oracle():
    # every connected graph with at most 7 edges and 7 vertices: the
    # exact decomposition is valid and as narrow as the best elimination
    graphs = [g for g in connected_graphs_up_to(7) if g.n <= 7]
    assert len(graphs) == 109
    widths = set()
    for g in graphs:
        td, exact = compute_tree_decomposition(g, mode="exact")
        assert exact
        assert validate(g, td) == (True, None)
        assert td.width == brute_force_treewidth(g), g
        widths.add(td.width)
    assert widths == {0, 1, 2, 3}


def test_exact_width_against_subset_dp_on_random_graphs():
    # the decision DP succeeds only below the min-fill width, so the
    # sample must hold graphs whose min-fill order is not optimal; dense
    # graphs have them (4 of these 200 do, one of width 4 against 5)
    rng = random.Random(7)
    beaten = 0
    for _ in range(200):
        n, p = rng.randint(8, 12), rng.choice((0.4, 0.5, 0.6))
        g = Graph.build(range(n), [(a, b) for a in range(n) for b in range(a + 1, n)
                                   if rng.random() < p])
        td, exact = compute_tree_decomposition(g, mode="exact")
        assert exact
        assert validate(g, td) == (True, None)
        width = subset_dp_treewidth(g)
        assert td.width == width, g.edges
        beaten += _decomposition_from_order(g, min_fill_order(g)).width > width
    assert beaten >= 2


def test_exact_width_of_the_4x5_grid():
    g = grid(4, 5)
    td, exact = compute_tree_decomposition(g, mode="exact")
    assert exact and td.width == 4
    assert validate(g, td) == (True, None)


def test_balanced_separation_sequence_on_a_grid():
    # the 3 x 32 grid has min-fill bags of at most 4 vertices, so every
    # k with 4 * 4k <= 96 meets the hypothesis
    g = grid(3, 32)
    td = _decomposition_from_order(g, min_fill_order(g))
    assert td.width == 3
    for k in range(1, 7):
        parts = balanced_separation_sequence(g, td, k).parts
        assert parts == naive_separation_parts(td, k)
        assert len(parts) == k
        assert set().union(*parts) == set(td.tree.vertices)
        weights = [len(set().union(*(td.bag[t] for t in p))) for p in parts]
        assert max(weights) <= 3 * min(weights), (k, weights)
        for i, p in enumerate(parts):
            others = set().union(*(q for j, q in enumerate(parts) if j != i))
            assert len(set(p) & others) <= floor_log_43(3 * k), (k, i)
        assert all(len(set(a) & set(b)) <= 1 for a, b in itertools.combinations(parts, 2))
    # at k = 7 a bag of 4 vertices exceeds |V|/(4k) = 96/28
    with pytest.raises(TreeDecompositionError):
        balanced_separation_sequence(g, td, 7)


def _random_decomposition(rng: random.Random) -> TreeDecomposition:
    """A random tree or forest on 1-25 shuffled node ids with random bags
    over a small vertex pool: some empty, running intersection unchecked."""
    n = rng.randint(1, 25)
    ids = rng.sample(range(100), n)
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
    if rng.random() < 0.3:
        edges = [e for e in edges if rng.random() < 0.8]
    pool = rng.randint(1, 12)
    bags = {t: rng.sample(range(pool), rng.randint(0, min(pool, 4))) for t in ids}
    return TreeDecomposition.build(Graph.build(ids, edges), bags)


def test_balanced_1_separation_matches_the_naive_scan():
    rng = random.Random(24)
    outcomes = {"balanced": 0, "all in one bag": 0, "error": 0, "forest": 0}
    for _ in range(1500):
        td = _random_decomposition(rng)
        try:
            want = naive_balanced_1_separation(td)
        except TreeDecompositionError as exc:
            with pytest.raises(TreeDecompositionError, match=str(exc)):
                balanced_1_separation(td)
            outcomes["error"] += 1
            continue
        assert balanced_1_separation(td) == want, td
        in_one = td.weight(td.tree.vertices) == len(td.bag[want[2]])
        outcomes["all in one bag" if in_one else "balanced"] += 1
        outcomes["forest"] += not td.tree.is_connected()
    assert min(outcomes.values()) >= 100, outcomes


def test_balanced_1_separation_rejects_a_cyclic_tree():
    tree = Graph.build(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    td = TreeDecomposition.build(tree, {t: [t] for t in range(4)})
    with pytest.raises(TreeDecompositionError, match="cycle"):
        balanced_1_separation(td)


def test_separation_sequence_on_a_path_decomposition_matches_the_naive_sequence():
    # a width-6 path decomposition of the 6 x 60 grid, vertex ids shuffled:
    # windows of 7 consecutive vertices in column-major order
    rows, cols = 6, 60
    perm = list(range(rows * cols))
    random.Random(1).shuffle(perm)
    g = Graph.build(perm, [(perm[u], perm[v]) for u, v in grid(rows, cols).edges])
    order = [perm[r * cols + c] for c in range(cols) for r in range(rows)]
    nodes = len(order) - rows
    td = TreeDecomposition.build(Graph.build(range(nodes), [(t, t + 1) for t in range(nodes - 1)]),
                                 {t: order[t:t + rows + 1] for t in range(nodes)})
    assert validate(g, td) == (True, None)
    for k in (6, 12):
        assert balanced_separation_sequence(g, td, k).parts == naive_separation_parts(td, k)
