import json

import pytest

from surface_minors import genus_search
from surface_minors.cli import main
from surface_minors.graph import Graph, graph6_encode
from conftest import complete, complete_bipartite


def test_genus_json_on_k5(capsys):
    code = main(["genus", "--graph6", graph6_encode(complete(5)), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (out["orientable_min"], out["nonorientable_min"]) == (2, 1)
    assert out["exact"] is True


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
