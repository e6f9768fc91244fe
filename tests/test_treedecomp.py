import itertools
import random

import pytest

from surface_minors.bounds import floor_log_43
from surface_minors.graph import Graph
from surface_minors.treedecomp import (TreeDecompositionError, _decomposition_from_order,
                                       balanced_separation_sequence,
                                       compute_tree_decomposition, min_fill_order, validate)
from conftest import grid
from oracles import brute_force_treewidth, connected_graphs_up_to, subset_dp_treewidth


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
