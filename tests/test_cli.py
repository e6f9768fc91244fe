import dataclasses
import json

import pytest

from surface_minors import corpus, genus_search
from surface_minors.cli import build_parser, main
from surface_minors.embedding import Embedding
from surface_minors.graph import Graph, graph6_encode
from surface_minors.structure import is_nested
from surface_minors.treedecomp import TreeDecomposition, validate
from conftest import complete, complete_bipartite, grid, path_graph, planar_embedding, torus_grid
from oracles import rectangle_radius


def test_genus_json_on_k5(capsys):
    code = main(["genus", "--graph6", graph6_encode(complete(5)), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (out["orientable_min"], out["nonorientable_min"]) == (2, 1)
    assert out["exact"] is True


def test_genus_searches_a_graph_with_a_cutvertex_by_blocks(monkeypatch, capsys):
    # two K5 sharing vertex 4: one search of the whole graph spends the
    # budget, a search of each K5 block is exact well within it
    monkeypatch.setattr(genus_search, "_profile_cache", {})
    k5 = complete(5)
    two = Graph.build(range(9), list(k5.edges) + [(u + 4, v + 4) for u, v in k5.edges])
    code = main(["genus", "--graph6", graph6_encode(two), "--budget", "1000", "--json",
                 "--witnesses"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (out["orientable_min"], out["nonorientable_min"], out["exact"]) == (4, 2, True)
    assert out["explored"] <= 1000
    witnesses = [Embedding.from_json(json.dumps(out[k]))
                 for k in ("orientable_witness", "nonorientable_witness")]
    assert [(w.graph, w.euler_genus(), w.is_orientable()) for w in witnesses] == \
        [(two, 4, True), (two, 2, False)]


def test_exhausted_budget_exits_3(monkeypatch, capsys):
    # exit code 3 means "unknown": the budget ran out before an answer;
    # an empty profile cache keeps exact K5 profiles of other tests out
    monkeypatch.setenv("SURFACE_MINORS_BUDGET", "50")
    monkeypatch.setattr(genus_search, "_profile_cache", {})
    k5 = graph6_encode(complete(5))
    code = main(["genus", "--graph6", k5, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["exact"] is False
    code = main(["embeddable", "--graph6", k5, "--surface", "0:orientable", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["embeddable"] is None


def test_malformed_budget_env_is_a_cli_error(monkeypatch, capsys):
    monkeypatch.setenv("SURFACE_MINORS_BUDGET", "lots")
    code = main(["genus", "--graph6", graph6_encode(complete(5)), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: SURFACE_MINORS_BUDGET")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["faces", "--graph6", "D~{", "--json"],
                                  ["bounds", "--g", "1", "--json"]],
                         ids=["faces", "bounds"])
def test_malformed_budget_env_spares_commands_that_do_not_search(monkeypatch, capsys, argv):
    monkeypatch.setenv("SURFACE_MINORS_BUDGET", "lots")
    assert main(argv) == 0
    json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [["faces"], ["cut", "--cycle", "0,1,2"],
                                  ["homotopy", "--cycle", "0,1,2", "--cycle2", "0,1,3"],
                                  ["radius", "--cycle", "0,1,2"], ["treedecomp"],
                                  ["separate", "--k", "2"]],
                         ids=lambda argv: argv[0])
def test_budget_is_rejected_where_nothing_searches(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--graph6", "D~{", "--budget", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 7" in capsys.readouterr().err


def test_chain_budget_bounds_the_cycle_enumeration(tmp_path, capsys):
    _, args = planar_grid_args(tmp_path, 3, 3)
    assert main(["chain", "--budget", "3"] + args) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exact"] is False and out["length"] == 1
    with pytest.raises(SystemExit):
        main(["chain", "--help"])
    assert "SURFACE_MINORS_BUDGET" not in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["genus", "--json-graph"],
                                   ["faces", "--graph6", "D~{", "--embedding"]],
                         ids=["json-graph", "embedding"])
def test_missing_input_file_is_a_cli_error(tmp_path, capsys, flags):
    missing = str(tmp_path / "missing.json")
    code = main(flags + [missing])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and missing in captured.err
    assert "Traceback" not in captured.err


K4_EMBEDDING = json.loads(planar_embedding(complete(4)).to_json())
TD_PATH = {"tree_edges": [[t, t + 1] for t in range(19)],
           "bags": {str(t): [100 + t] for t in range(20)}}


@pytest.mark.parametrize("flag,content,field", [
    ("--json-graph", {"n": "3", "edges": []}, "'n'"),
    ("--json-graph", {"n": 3, "edges": [[0, 5]]}, "'edges'"),
    ("--json-graph", {"n": 3, "edges": 5}, "'edges'"),
    ("--embedding", {k: v for k, v in K4_EMBEDDING.items() if k != "rotation"}, "'rotation'"),
    ("--embedding", [1, 2], "'rotation'"),
    ("--td", {"tree_edges": []}, "'bags'"),
    ("--td", [], "'bags'"),
    ("--td", TD_PATH, "axiom 1"),
], ids=["n-not-int", "edge-out-of-range", "edges-not-list", "no-rotation",
        "embedding-not-object", "no-bags", "td-not-object", "td-of-another-graph"])
def test_malformed_input_file_is_a_named_cli_error(tmp_path, capsys, flag, content, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    if flag == "--td":
        argv = ["separate", "--graph6", graph6_encode(path_graph(40)), "--k", "2"]
    elif flag == "--embedding":
        argv = ["faces", "--graph6", graph6_encode(complete(4))]
    else:
        argv = ["faces"]
    code = main(argv + [flag, str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err
    assert "Traceback" not in captured.err


def torus_grid_args(tmp_path, rows: int, cols: int) -> list[str]:
    g, emb = torus_grid(rows, cols)
    path = tmp_path / "torus.json"
    path.write_text(emb.to_json())
    return ["--graph6", graph6_encode(g), "--embedding", str(path), "--json"]


def test_homotopy_json_on_torus_bands(tmp_path, capsys):
    # two parallel essential triangles bound an annulus of their 6 vertices
    code = main(["homotopy", "--cycle", "0,6,12", "--cycle2", "1,7,13"]
                + torus_grid_args(tmp_path, 3, 6))
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["homotopic"] is True
    assert out["interior"]["n"] == 6


@pytest.mark.parametrize("cycle,genus", [("0,1,2", 0), ("0,1,4,3", 2)],
                         ids=["nonseparating", "contractible"])
def test_cut_json_on_the_torus_grid(tmp_path, capsys, cycle, genus):
    # a nonseparating cut leaves an annulus; a contractible one a disk
    # and a holed torus
    code = main(["cut", "--cycle", cycle] + torus_grid_args(tmp_path, 3, 3))
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["copies"]) == 2 and out["total_genus"] == genus


def test_embeddable_two_k33_in_klein_bottle(capsys):
    k33 = complete_bipartite(3, 3)
    two = Graph.build(range(12), list(k33.edges) + [(u + 6, v + 6) for u, v in k33.edges])
    code = main(["embeddable", "--graph6", graph6_encode(two), "--surface", "2:nonorientable",
                 "--json", "--witnesses"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["embeddable"] is True
    assert len(out["witness"]) == 2


def test_seed_is_a_corpus_option_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["genus", "--graph6", graph6_encode(complete(5)), "--seed", "1"])
    assert exc.value.code == 2
    assert main(["corpus", "verify", "--json", "--seed", "1"]) == 0


def test_treedecomp_exact_json_on_the_4x5_grid(capsys):
    g = grid(4, 5)
    code = main(["treedecomp", "--graph6", graph6_encode(g), "--mode", "exact", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["width"] == 4 and out["exact"] is True
    assert validate(g, TreeDecomposition.from_json_obj(out)) == (True, None)


def test_failed_corpus_verify_exits_2(monkeypatch, capsys):
    # K4's stored profile (0, 1) is replaced by a wrong (1, 1)
    entries = corpus.build_corpus()
    k4 = entries[0]
    (key, expected, provenance), = k4.facts
    assert (k4.name, key, expected) == ("K4", "genus_profile", (0, 1))
    wrong = dataclasses.replace(k4, facts=((key, (1, 1), provenance),))
    monkeypatch.setattr(corpus, "build_corpus", lambda: [wrong] + entries[1:])
    code = main(["corpus", "verify", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["ok"] is False
    assert len(out["failed"]) == 1 and out["failed"][0].startswith("K4: genus_profile = (1, 1)")


def test_one_parser_serves_every_command_in_a_process(tmp_path, capsys):
    # the parser is built once per process, and a run of different
    # subcommands through it prints what a fresh parser prints for each
    torus = torus_grid_args(tmp_path, 3, 3)
    runs = [["genus", "--graph6", graph6_encode(complete(4)), "--json"],
            ["faces"] + torus,
            ["cut", "--cycle", "0,1,2"] + torus,
            ["bounds", "--g", "1", "--json"],
            ["treedecomp", "--graph6", graph6_encode(grid(2, 3)), "--json"]]

    def outputs(fresh: bool) -> list:
        out = []
        for argv in runs:
            if fresh:
                build_parser.cache_clear()
            out.append((main(argv), capsys.readouterr()))
        return out

    fresh = outputs(True)
    build_parser.cache_clear()
    shared = outputs(False)
    assert build_parser.cache_info().misses == 1
    assert shared == fresh
    assert all(code == 0 for code, _ in shared)


def planar_grid_args(tmp_path, rows: int, cols: int) -> tuple[Graph, list[str]]:
    g = grid(rows, cols)
    path = tmp_path / "grid.json"
    path.write_text(planar_embedding(g).to_json())
    return g, ["--graph6", graph6_encode(g), "--embedding", str(path), "--json"]


def test_chain_json_on_the_3x3_grid(tmp_path, capsys):
    g, args = planar_grid_args(tmp_path, 3, 3)
    code = main(["chain"] + args)
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["exact"] is True
    assert out["length"] == len(out["cycles"]) == 2
    emb = planar_embedding(g)
    for inner, outer in zip(out["cycles"], out["cycles"][1:]):
        assert is_nested(g, emb, inner, outer)


def test_radius_json_on_the_4x5_grid(tmp_path, capsys):
    # the boundary of the whole grid encloses 3 x 4 unit squares
    _, args = planar_grid_args(tmp_path, 4, 5)
    boundary = [0, 1, 2, 3, 4, 9, 14, 19, 18, 17, 16, 15, 10, 5]
    code = main(["radius", "--cycle", ",".join(map(str, boundary))] + args)
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["radius"] == len(out["layers"]) == rectangle_radius(3, 4)
    assert sum(len(layer) for layer in out["layers"]) == 12
