import random

from surface_minors.graph import Graph
from surface_minors.treedecomp import (_decomposition_from_order, compute_tree_decomposition,
                                       min_fill_order, validate)
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
