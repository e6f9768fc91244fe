import json

from surface_minors.cli import main
from surface_minors.graph import graph6_encode
from conftest import complete


def test_genus_json_on_k5(capsys):
    code = main(["genus", "--graph6", graph6_encode(complete(5)), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (out["orientable_min"], out["nonorientable_min"]) == (2, 1)
    assert out["exact"] is True


def test_malformed_budget_env_is_a_cli_error(monkeypatch, capsys):
    monkeypatch.setenv("SURFACE_MINORS_BUDGET", "lots")
    code = main(["genus", "--graph6", graph6_encode(complete(5)), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: SURFACE_MINORS_BUDGET")
    assert "Traceback" not in captured.err
