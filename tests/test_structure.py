import pytest

from surface_minors.embedding import EmbeddingError
from surface_minors.structure import is_nested
from conftest import planar_embedding, wheel


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
