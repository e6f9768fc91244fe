from surface_minors.treedecomp import compute_tree_decomposition, validate
from oracles import brute_force_treewidth, connected_graphs_up_to


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
