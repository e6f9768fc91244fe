"""Self-tests of the benchmark's references and tracing.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import surface_minors  # noqa: E402
import surface_minors.cli  # noqa: E402,F401
from surface_minors.embedding import Embedding  # noqa: E402
from surface_minors.graph import Graph, graph6_decode  # noqa: E402

import graphs as G  # noqa: E402
import reference as R  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _genus_output(name, g):
    ans = workloads.run_cli(surface_minors, ["genus", "--graph6", G.graph6(*g), "--json",
                                             "--witnesses"])
    assert ans["rc"] == 0
    return ans["out"]


# ---------------------------------------------------------------------------
# The reference checker rejects wrong answers
# ---------------------------------------------------------------------------


def test_genus_checker_accepts_the_right_answer():
    g = G.complete(5)
    assert R.check_genus_answer(_genus_output("K5", g), *g, R.NAMED_GENUS["K5"])[0] is None


@pytest.mark.parametrize("field, value", [("orientable_min", 0), ("nonorientable_min", 2),
                                          ("exact", False)])
def test_genus_checker_rejects_a_wrong_genus(field, value):
    g = G.complete(5)
    out = dict(_genus_output("K5", g), **{field: value})
    assert R.check_genus_answer(out, *g, R.NAMED_GENUS["K5"])[0] is not None
    assert R.check_genus_answer(out, *g)[0] is not None


def test_genus_checker_rejects_a_consistent_but_wrong_literature_value():
    g = G.complete(5)
    assert R.check_genus_answer(_genus_output("K5", g), *g, ((2, 2), "test"))[0] is not None


def test_genus_checker_rejects_a_tampered_witness():
    g = G.petersen()
    out = copy.deepcopy(_genus_output("Petersen", g))
    rot = out["orientable_witness"]["rotation"]
    rot["0"] = list(reversed(rot["0"]))
    assert R.check_genus_answer(out, *g)[0] is not None


def test_genus_checker_names_its_proof():
    g = G.random_subcubic(random.Random(3), 5, 1)
    reason, provenance = R.check_genus_answer(_genus_output("random", g), *g)
    assert reason is None and provenance.startswith("proved")


def test_certify_checker_rejects_wrong_verdicts():
    k6 = G.complete(6)
    assert R.check_certify_answer("K6@S0", 0, {"surface": {"genus": 0, "orientable": True},
                                               "minors": [], "genus_of_G": 1}, *k6)
    embeds = {"certified": False, "counterexample": {"kind": "graph-embeds", "witness": []}}
    assert R.check_certify_answer("K5@S0", 1, embeds, *G.complete(5))
    minor = {"certified": False, "counterexample": {"kind": "non-embeddable-minor"}}
    assert R.check_certify_answer("K6@S0", 1, minor, *k6) is None
    assert R.check_certify_answer("Petersen@N1", 1, minor, *G.petersen())


def test_certify_checker_rejects_a_wrong_genus_of_g():
    k33 = G.complete_bipartite(3, 3)
    ans = workloads.run_cli(surface_minors, ["certify", "--graph6", G.graph6(*k33),
                                             "--surface", "0:orientable", "--json"])
    assert R.check_certify_answer("K3,3@S0", ans["rc"], ans["out"], *k33) is None
    wrong = dict(ans["out"], genus_of_G=2)
    assert "genus_of_G" in R.check_certify_answer("K3,3@S0", 0, wrong, *k33)


def test_torus_references():
    rows, cols = 4, 4
    row = tuple(range(4))
    column = tuple(4 * i for i in range(4))
    square = (0, 1, 5, 4)
    assert R.winding(row, rows, cols) == (0, 1)
    assert R.winding(column, rows, cols) == (1, 0)
    assert R.winding(square, rows, cols) == (0, 0)
    assert R.nested_on_torus(square, (0, 1, 2, 6, 10, 9, 8, 4), rows, cols)
    assert not R.nested_on_torus((0, 1, 2, 6, 10, 9, 8, 4), square, rows, cols)
    n, edges, _ = G.torus_grid(3, 3)
    expected = [c for c in nx.simple_cycles(nx.Graph(edges)) if len(c) >= 3]
    assert len(G.simple_cycles(n, edges)) == len(expected)


def test_treewidth_and_radius_references():
    n, edges = G.grid(3, 3)
    path = {t: list(range(t, t + 4)) for t in range(6)}
    tree = [[t, t + 1] for t in range(5)]
    assert R.check_tree_decomposition(n, edges, path, tree) is None
    assert R.check_tree_decomposition(n, edges, {0: [0, 1, 3, 4], 1: [2, 5, 8]}, [[0, 1]])
    assert [R.rectangle_radius(h, w) for h, w in ((1, 1), (1, 5), (2, 2), (3, 3), (4, 6))] == \
        [0, 1, 1, 2, 2]


def test_graph6_matches_the_package_decoder():
    rng = random.Random(7)
    for g in (G.petersen(), G.grid(6, 60), G.random_subcubic(rng, 6, 2), G.complete(1)):
        assert graph6_decode(G.graph6(*g)) == Graph.build(range(g[0]), g[1])


# ---------------------------------------------------------------------------
# The independent face counter agrees with the package
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_face_counter_agrees_with_embedding_faces(seed):
    rng = random.Random(seed)
    for g in (G.complete(7), G.random_subcubic(rng, 5, 2), G.complete_bipartite(3, 4),
              G.torus_grid(3, 4)[:2]):
        n, edges = g
        graph = Graph.build(range(n), edges)
        for _ in range(20):
            rotation, signature = G.random_embedding(rng, n, edges)
            emb = Embedding.build(graph, rotation, signature)
            assert R.face_count(edges, rotation, signature) == len(emb.faces())
            assert R.is_orientable(range(n), edges, signature) == emb.is_orientable()


# ---------------------------------------------------------------------------
# Spans and self times
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_nesting_and_self_time_on_a_synthetic_trace():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_t()
        clock.now += 0.5
        leaf_t()

    def outer():
        clock.now += 3.0
        middle_t()

    leaf_t = tracer.wrap("graph.blocks", leaf)
    middle_t = tracer.wrap("genus_search.cached_profile", middle)
    outer_t = tracer.wrap("cli.main", outer)
    tracer.op = 4
    outer_t()
    spans = tracer.spans
    assert [s.name for s in spans] == ["cli.main", "genus_search.cached_profile",
                                       "graph.blocks", "graph.blocks"]
    assert [s.parent for s in spans] == [-1, 0, 1, 1]
    assert all(s.op == 4 for s in spans)
    assert tracing.self_times(spans) == [3.0, 1.5, 2.0, 2.0]
    assert sum(tracing.self_times(spans)) == spans[0].end - spans[0].start
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["graph.blocks_self_s"] == 4.0
    assert metrics["genus_search.self_s"] == 1.5
    assert metrics["genus_search.cache_hit_ratio"] == 1.0


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span("a", 0.0, 10.0, -1, 0),
             tracing.Span("b", 1.0, 5.0, 0, 0),
             tracing.Span("c", 4.0, 6.0, 0, 0),
             tracing.Span("d", 9.0, 12.0, 0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_a_span_is_closed_when_the_call_raises():
    tracer = tracing.Tracer(FakeClock())

    def boom():
        raise ValueError("no")
    with pytest.raises(ValueError):
        tracer.wrap("graph.blocks", boom)()
    assert tracer.spans[0].parent == -1 and not tracer._stack


def test_install_wraps_every_binding_and_restores_them():
    sm = surface_minors
    originals = (sm.genus_search.min_euler_genus, sm.cli.min_euler_genus,
                 sm.min_euler_genus, sm.embedding.Embedding.faces)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, sm)
    try:
        assert sm.cli.min_euler_genus is sm.genus_search.min_euler_genus
        assert sm.cli.min_euler_genus is not originals[0]
        workloads.run_cli(sm, ["genus", "--graph6", G.graph6(*G.complete(4)), "--json"])
    finally:
        restore()
    assert (sm.genus_search.min_euler_genus, sm.cli.min_euler_genus,
            sm.min_euler_genus, sm.embedding.Embedding.faces) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and "genus_search.min_euler_genus" in names
    search = names.index("genus_search.min_euler_genus")
    assert tracer.spans[search].parent == 0
    assert tracing.layer_metrics(tracer.spans)["genus_search.searches"] == 1
