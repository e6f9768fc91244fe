import collections
import itertools

import pytest

from surface_minors import structure
from surface_minors.embedding import Embedding, EmbeddingError
from surface_minors.graph import Graph
from surface_minors.structure import (StructureError, _classify_pinches, enumerate_cycles,
                                      is_nested, longest_well_nested_chain, radius)
from conftest import grid, planar_embedding, torus_grid, wheel
from oracles import exhaustive_chain, rectangle_radius


def test_is_nested_validates_its_cycles():
    w5 = wheel(5)
    emb = planar_embedding(w5)
    rim_face = next(f for f in emb.faces() if f.size == 5)
    rim, spoke_triangle = [1, 2, 3, 4, 5], [0, 1, 2]
    assert is_nested(w5, emb, spoke_triangle, rim, rim_face)
    # a rotation or reversal of a cycle is answered alike
    assert is_nested(w5, emb, [2, 1, 0], [3, 4, 5, 1, 2], rim_face)
    assert not is_nested(w5, emb, rim, spoke_triangle, rim_face)
    # a closed walk naming its start twice is the same cycle
    assert is_nested(w5, emb, [0, 1, 2, 0], rim, rim_face)
    # [0, 0, 2, 1] has the canonical form of the closed walk [0, 1, 2, 0]
    for bad in ([], [1, 3, 0], [0, 0, 2, 1]):
        with pytest.raises(EmbeddingError):
            is_nested(w5, emb, bad, rim, rim_face)
        with pytest.raises(EmbeddingError):
            is_nested(w5, emb, spoke_triangle, bad, rim_face)


def _pieces(kind):
    """A kind as its tag and its pieces, each a vertex id or a face's
    vertex set; None stays None."""
    if kind is None:
        return None
    return kind.tag, tuple(p if isinstance(p, int) else p.vertex_set for p in kind.pieces)


def test_classify_pinches_on_hand_checked_pairs():
    # inner cycle first; the outer cycle is the one the pair is classified in
    g = grid(3, 4)
    emb = planar_embedding(g)
    outer = max(emb.faces(), key=lambda f: f.size).vertex_set
    square = frozenset({5, 6, 9, 10})
    cases = [
        # the shared path 5-4-0-1 lies on no face that certifies it
        ((0, 1, 5, 4), (0, 1, 2, 6, 5, 4), None),
        # 4-0-1 is interior to the path 10-9-8-4-0-1-2 on the outer face
        ((0, 1, 5, 4), (0, 1, 2, 6, 10, 9, 8, 4), ("pinched-one", (outer,))),
        ((0, 1, 5, 4), (0, 1, 2, 6, 5, 9, 8, 4), ("pinched-two", (5, outer))),
        # 1-2 on the outer face, and 6-5 inside the path 10-6-5-9 of a square
        ((1, 2, 6, 5), (0, 1, 2, 3, 7, 11, 10, 6, 5, 9, 8, 4),
         ("pinched-two", (outer, square))),
    ]
    g4 = grid(4, 4)
    emb4 = planar_embedding(g4)
    cases4 = [
        ((5, 6, 10, 9), (0, 1, 2, 3, 7, 11, 15, 14, 13, 12, 8, 4), ("free", ())),
        ((5, 6, 10, 9), (0, 1, 2, 3, 7, 11, 10, 14, 13, 12, 8, 4), ("pinched-one", (10,))),
        ((5, 6, 10, 9), (0, 1, 2, 3, 7, 11, 10, 14, 13, 9, 8, 4), ("pinched-two", (9, 10))),
    ]
    for graph, embedding, pairs in ((g, emb, cases), (g4, emb4, cases4)):
        for inner, outer_cycle, want in pairs:
            assert is_nested(graph, embedding, inner, outer_cycle)
            assert _pieces(_classify_pinches(embedding, outer_cycle, inner)) == want, inner


def test_chain_classifies_each_pair_as_a_lone_classification(monkeypatch):
    # the chain hands _classify_pinches the inner cycle's edge set and a
    # per-outer-cycle store of its paths on faces; each pair must get the
    # kind that a call with neither gives
    g = grid(3, 4)
    emb = planar_embedding(g)
    seen = []

    def recording(emb, c_out, c_in, *stores):
        kind = _classify_pinches(emb, c_out, c_in, *stores)
        seen.append((c_out, c_in, kind))
        return kind

    monkeypatch.setattr(structure, "_classify_pinches", recording)
    longest_well_nested_chain(g, emb)
    monkeypatch.undo()
    for c_out, c_in, kind in seen:
        assert kind == _classify_pinches(emb, c_out, c_in), (c_out, c_in)
    tags = collections.Counter(kind and kind.tag for *_, kind in seen)
    faces = sum(not isinstance(p, int) for *_, kind in seen if kind for p in kind.pieces)
    assert faces >= 50 and set(tags) == {None, "pinched-one", "pinched-two"}, (faces, tags)


def torus_with_nested_triangle() -> tuple[Graph, Embedding]:
    """The 3x3 torus grid with the triangle 9-10-11 drawn inside its face
    0-1-4-3 and joined to it by the edges 0-9, 1-10 and 4-11."""
    g, emb = torus_grid(3, 3)
    edges = list(g.edges) + [(9, 10), (10, 11), (9, 11), (0, 9), (1, 10), (4, 11)]
    rotation = dict(emb.rot) | {0: (1, 9, 3, 2, 6), 1: (0, 7, 2, 4, 10),
                                4: (1, 5, 7, 3, 11), 9: (0, 10, 11), 10: (1, 11, 9),
                                11: (4, 9, 10)}
    big = Graph.build(range(12), edges)
    return big, Embedding.build(big, rotation)


CHAIN_GRIDS = [("torus", 3, 3), ("torus", 3, 4), ("torus-nested", 3, 3)] + [
    ("planar", r, c) for r in range(2, 5) for c in range(r, 5)]


@pytest.mark.parametrize("surface,rows,cols", CHAIN_GRIDS,
                         ids=[f"{s}-{r}x{c}" for s, r, c in CHAIN_GRIDS])
def test_chain_matches_exhaustive_oracle(surface, rows, cols):
    if surface == "torus":
        g, emb = torus_grid(rows, cols)
    elif surface == "torus-nested":
        g, emb = torus_with_nested_triangle()
    else:
        g = grid(rows, cols)
        emb = planar_embedding(g)
    got, want = longest_well_nested_chain(g, emb), exhaustive_chain(g, emb)
    assert got.exact and got.cycles == want.cycles
    assert [k.key for k in got.kinds] == [k.key for k in want.kinds]
    assert got.discipline == want.discipline
    if surface == "torus-nested":
        # a chain of two: the triangle nested in the face it was drawn in
        assert (emb.euler_genus(), len(emb.faces())) == (2, 12)
        assert got.cycles == ((9, 10, 11), (0, 1, 4, 3)) and got.discipline == "free"


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



def rectangle(r0: int, c0: int, r1: int, c1: int, cols: int) -> list[int]:
    """Boundary cycle of the block of grid squares with corners (r0, c0)
    and (r1, c1), for ``conftest.grid`` numbering."""
    top = [r0 * cols + c for c in range(c0, c1 + 1)]
    right = [r * cols + c1 for r in range(r0 + 1, r1 + 1)]
    bottom = [r1 * cols + c for c in range(c1 - 1, c0 - 1, -1)]
    left = [r * cols + c0 for r in range(r1 - 1, r0, -1)]
    return top + right + bottom + left


def test_radius_of_grid_rectangles():
    rows, cols = 5, 6
    g = grid(rows, cols)
    emb = planar_embedding(g)
    outer = max(emb.faces(), key=lambda f: f.size)
    sizes = set()
    for r0, r1 in itertools.combinations(range(rows), 2):
        for c0, c1 in itertools.combinations(range(cols), 2):
            h, w = r1 - r0, c1 - c0
            res = radius(g, emb, rectangle(r0, c0, r1, c1, cols), outer_face=outer)
            assert res.radius == len(res.layers) == rectangle_radius(h, w), (r0, c0, r1, c1)
            sizes.add((h, w))
    assert len(sizes) == 20


def test_radius_rejects_a_noncontractible_cycle():
    g, emb = torus_grid(3, 3)
    with pytest.raises(StructureError):
        radius(g, emb, [0, 1, 2])
