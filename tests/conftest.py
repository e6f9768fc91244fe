import itertools
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from surface_minors.graph import Graph, group_isomorphic, one_step_minors
from surface_minors.embedding import Embedding
from surface_minors.corpus import (complete, complete_bipartite, cycle_graph,  # noqa: F401
                                   path_graph, torus_grid, wheel)


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols planar grid; vertex r * cols + c."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.build(range(rows * cols), edges)


def minors_per_class(graph: Graph) -> list:
    """The first one-step minor of each (operation kind, isomorphism
    class) pair, in enumeration order."""
    out = []
    for _, ops in itertools.groupby(one_step_minors(graph), key=lambda pair: pair[0][0]):
        ops = list(ops)
        out += [ops[cls[0]] for cls in group_isomorphic([m for _, m in ops])]
    return out


def petersen() -> Graph:
    return Graph.build(range(10), [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def rotations_from_positions(g: Graph, pos: dict) -> dict:
    """Planar rotation system read off from straight-line coordinates."""
    return {v: tuple(sorted(g.neighbors(v),
                            key=lambda w: math.atan2(pos[w][1] - pos[v][1],
                                                     pos[w][0] - pos[v][0])))
            for v in g.vertices}


def planar_embedding(g: Graph) -> Embedding:
    """Some planar rotation system (the graph must be planar)."""
    import networkx as nx
    ok, pe = nx.check_planarity(g.to_nx())
    assert ok, "graph is not planar"
    return Embedding.build(g, rotation={v: list(pe.neighbors_cw_order(v))
                                        for v in g.vertices})


@pytest.fixture(scope="session")
def small_graph_zoo():
    return {
        "K4": complete(4),
        "K5": complete(5),
        "K33": complete_bipartite(3, 3),
        "C5": cycle_graph(5),
        "P4": path_graph(4),
        "W5": wheel(5),
    }
