import pytest

from surface_minors import structure
from surface_minors.embedding import EmbeddingError
from surface_minors.structure import enumerate_cycles, is_nested, longest_well_nested_chain
from conftest import grid, planar_embedding, wheel


def test_is_nested_validates_with_and_without_cache():
    w5 = wheel(5)
    emb = planar_embedding(w5)
    rim_face = next(f for f in emb.faces() if f.size == 5)
    rim, spoke_triangle = [1, 2, 3, 4, 5], [0, 1, 2]
    for cache in (None, {}):
        assert is_nested(w5, emb, spoke_triangle, rim, rim_face, cache)
        # a rotation or reversal of a cached cycle is answered alike
        assert is_nested(w5, emb, [2, 1, 0], [3, 4, 5, 1, 2], rim_face, cache)
        assert not is_nested(w5, emb, rim, spoke_triangle, rim_face, cache)
        # a closed walk naming its start twice is the same cycle
        assert is_nested(w5, emb, [0, 1, 2, 0], rim, rim_face, cache)
        # invalid input raises whatever the cache holds; [0, 0, 2, 1] has
        # the canonical form of the closed walk [0, 1, 2, 0] given above
        for bad in ([], [1, 3, 0], [0, 0, 2, 1]):
            with pytest.raises(EmbeddingError):
                is_nested(w5, emb, bad, rim, rim_face, cache)
            with pytest.raises(EmbeddingError):
                is_nested(w5, emb, spoke_triangle, bad, rim_face, cache)


def test_chain_classifies_each_cycle_once(monkeypatch):
    g = grid(3, 3)
    emb = planar_embedding(g)
    calls, canonical = [], []
    classify, canonicalize = structure.classify_cycle, structure._canonical_cycle

    def counting(graph, emb, cycle, **kwargs):
        calls.append(tuple(cycle))
        return classify(graph, emb, cycle, **kwargs)

    monkeypatch.setattr(structure, "classify_cycle", counting)
    monkeypatch.setattr(structure, "_canonical_cycle",
                        lambda cyc: canonical.append(cyc) or canonicalize(cyc))
    res = longest_well_nested_chain(g, emb)
    monkeypatch.undo()
    cycles, exact = enumerate_cycles(g)
    # one classification per cycle, and no canonical forms past the
    # enumeration's own
    assert exact and sorted(calls) == sorted(cycles)
    assert len(canonical) == len(cycles)
    assert res.exact and len(res.cycles) == 2
    for inner, outer in zip(res.cycles, res.cycles[1:]):
        assert is_nested(g, emb, inner, outer)
