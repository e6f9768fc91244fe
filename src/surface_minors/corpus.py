"""Bundled graph corpus with provenance-tagged known facts, and the
graph-family builders it is made from.

Every fact carries a provenance string naming its oracle; ``verify``
recomputes each fact and a battery of module invariants, failing with
the entry and property named.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graph import Graph, blocks
from .embedding import Embedding, random_embedding
from .genus_search import (Surface, cached_profile, combined_minima, genus_via_blocks,
                           min_euler_genus)
from .treedecomp import compute_tree_decomposition, validate


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    graph: Graph
    facts: tuple[tuple[str, object, str], ...]  # (fact key, expected, provenance)
    embedding: Embedding | None = None

    def __post_init__(self):
        for key, _, provenance in self.facts:
            if not provenance.strip():
                raise ValueError(f"corpus entry {self.name}: fact {key} lacks provenance")


def complete(n: int) -> Graph:
    """The complete graph on 0..n-1."""
    return Graph.build(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with sides 0..a-1 and a..a+b-1."""
    return Graph.build(range(a + b), [(i, a + j) for i in range(a) for j in range(b)])


def cycle_graph(n: int) -> Graph:
    """The cycle 0-1-...-(n-1)-0."""
    return Graph.build(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """The path 0-1-...-(n-1)."""
    return Graph.build(range(n), [(i, i + 1) for i in range(n - 1)])


def wheel(rim: int) -> Graph:
    """Hub 0 joined to the rim cycle 1..rim."""
    return Graph.build(range(rim + 1), [(0, i) for i in range(1, rim + 1)]
                       + [(i, i % rim + 1) for i in range(1, rim + 1)])


def _disjoint(g1: Graph, g2: Graph) -> Graph:
    off = max(g1.vertices) + 1
    return Graph.build(list(g1.vertices) + [v + off for v in g2.vertices],
                       list(g1.edges) + [(u + off, v + off) for u, v in g2.edges])


def _wedge(g1: Graph, g2: Graph) -> Graph:
    """Glue at one vertex: vertex 0 of each is identified."""
    off = max(g1.vertices) + 1
    relabel = {v: (0 if v == 0 else v + off) for v in g2.vertices}
    return Graph.build(list(g1.vertices) + [relabel[v] for v in g2.vertices if v != 0],
                       list(g1.edges) + [(relabel[u], relabel[v]) for u, v in g2.edges])


def torus_grid(rows: int, cols: int) -> tuple[Graph, Embedding]:
    """The rows x cols grid on the torus with its quadrangular embedding."""
    def vid(i, j):
        return cols * (i % rows) + (j % cols)
    edges = set()
    for i in range(rows):
        for j in range(cols):
            edges.add(tuple(sorted((vid(i, j), vid(i + 1, j)))))
            edges.add(tuple(sorted((vid(i, j), vid(i, j + 1)))))
    g = Graph.build(range(rows * cols), edges)
    rot = {vid(i, j): [vid(i - 1, j), vid(i, j + 1), vid(i + 1, j), vid(i, j - 1)]
           for i in range(rows) for j in range(cols)}
    return g, Embedding.build(g, rotation=rot)


def build_corpus() -> list[CorpusEntry]:
    k5, k33, k4 = complete(5), complete_bipartite(3, 3), complete(4)
    torus_g, torus_e = torus_grid(3, 3)
    entries = [
        CorpusEntry("K4", k4, (
            ("genus_profile", (0, 1), "[DERIVED: exhaustive rotation/signature search]"),
        )),
        CorpusEntry("K5", k5, (
            ("genus_profile", (2, 1), "[DERIVED: exhaustive search; PAPER: not planar (Wagner clause)]"),
            ("excluded_minor_for", "0:orientable", "[PAPER: Wagner clause; DERIVED: certifier]"),
        )),
        CorpusEntry("K3,3", k33, (
            ("genus_profile", (2, 1), "[DERIVED: exhaustive search; PAPER: not planar (Wagner clause)]"),
            ("excluded_minor_for", "0:orientable", "[PAPER: Wagner clause; DERIVED: certifier]"),
        )),
        CorpusEntry("C5", cycle_graph(5), (
            ("genus_profile", (0, 1), "[DERIVED: exhaustive search]"),
        )),
        CorpusEntry("P4", path_graph(4), (
            ("genus_profile", (0, None), "[TRIVIAL: forests have a single face]"),
        )),
        CorpusEntry("star-K1,4", Graph.build(range(5), [(0, i) for i in range(1, 5)]), (
            ("genus_profile", (0, None), "[TRIVIAL: forests have a single face]"),
        )),
        CorpusEntry("W5", wheel(5), (
            ("genus_profile", (0, 1), "[DERIVED: exhaustive search]"),
        )),
        CorpusEntry("2xK3,3", _disjoint(k33, k33), (
            ("combined_minima", (4, 2), "[DERIVED: per-component search + combination rule]"),
            ("excluded_minor_for", "1:nonorientable",
             "[PAPER: the disjoint-copies lower-bound family; DERIVED: certifier]"),
        )),
        CorpusEntry("K3,3-wedge-K3,3", _wedge(k33, k33), (
            ("genus_via_blocks", 2, "[PAPER: genus additivity over blocks; DERIVED: per-block search]"),
            ("block_count", 2, "[TRIVIAL: construction]"),
        )),
        CorpusEntry("K5-wedge-K5", _wedge(k5, k5), (
            ("genus_via_blocks", 2, "[PAPER: genus additivity over blocks; DERIVED: per-block search]"),
        )),
        CorpusEntry("torus-grid-C3xC3", torus_g, (
            ("witness_genus", 2, "[DERIVED: face traversal of the stored quadrangulation]"),
            ("witness_faces", 9, "[DERIVED: face traversal]"),
            ("nonplanar", True, "[DERIVED: planarity oracle]"),
        ), embedding=torus_e),
    ]
    return entries


def _check_fact(entry: CorpusEntry, key: str, expected) -> tuple[bool, str]:
    g = entry.graph
    if key == "genus_profile":
        prof = cached_profile(g)
        got = (prof.orientable_min, prof.nonorientable_min)
        return got == tuple(expected), f"{got}"
    if key == "combined_minima":
        got = combined_minima(g)
        return got == tuple(expected), f"{got}"
    if key == "genus_via_blocks":
        got = genus_via_blocks(g)
        return got == expected, f"{got}"
    if key == "block_count":
        got = len(blocks(g)[0])
        return got == expected, f"{got}"
    if key == "excluded_minor_for":
        from .certify import certify_excluded_minor
        out = certify_excluded_minor(g, Surface.parse(expected))
        return out.certified, "counterexample" if not out.certified else "certified"
    if key == "witness_genus":
        got = entry.embedding.euler_genus()
        return got == expected, f"{got}"
    if key == "witness_faces":
        got = len(entry.embedding.faces())
        return got == expected, f"{got}"
    if key == "nonplanar":
        import networkx as nx
        got = not nx.check_planarity(g.to_nx())[0]
        return got == expected, f"{got}"
    return False, f"unknown fact key {key!r}"


def _invariant_suite(rng: random.Random) -> list[tuple[str, bool, str]]:
    """A quick pass over the core module invariants on corpus-scale data."""
    out = []
    # Euler identity and local-change invariance on random embeddings
    violations = 0
    for _ in range(200):
        n = rng.randrange(2, 7)
        edges = {(i, rng.randrange(i)) for i in range(1, n)}
        for _ in range(rng.randrange(0, 5)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        g = Graph.build(range(n), edges)
        emb = random_embedding(g, rng)
        if sum(f.size for f in emb.faces()) != 2 * g.m:
            violations += 1
        genus = emb.euler_genus()
        if genus < 0 or (emb.is_orientable() and genus % 2):
            violations += 1
        v = rng.choice(g.vertices)
        if emb.local_change(v).euler_genus() != genus:
            violations += 1
    out.append(("euler-identities", violations == 0, f"{violations} violations"))
    # block additivity on small random connected graphs with cutvertices,
    # against the direct search (cached_profile itself decomposes by blocks)
    bad = 0
    for _ in range(10):
        g = _random_cut_graph(rng, max_block_edges=6)
        direct = min_euler_genus(g).overall_min
        if genus_via_blocks(g) != direct:
            bad += 1
    out.append(("block-additivity", bad == 0, f"{bad} mismatches"))
    # tree decompositions validate
    ok = True
    for _ in range(10):
        n = rng.randrange(4, 12)
        edges = {(i, rng.randrange(i)) for i in range(1, n)}
        g = Graph.build(range(n), edges)
        td, _ = compute_tree_decomposition(g, mode="heuristic")
        valid, _why = validate(g, td)
        ok = ok and valid
    out.append(("treedecomp-validate", ok, ""))
    return out


def _random_cut_graph(rng: random.Random, max_block_edges: int = 6) -> Graph:
    """Two small random 2-connected-ish blocks glued at a cutvertex."""
    def block():
        n = rng.randrange(3, 5)
        edges = [(i, (i + 1) % n) for i in range(n)]
        for _ in range(rng.randrange(0, max(1, max_block_edges - n))):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.append((min(a, b), max(a, b)))
        return Graph.build(range(n), set(edges))
    return _wedge(block(), block())


@dataclass
class VerifyReport:
    passed: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed


def verify(seed: int = 0) -> VerifyReport:
    """Recompute every known fact and run the invariant suite."""
    report = VerifyReport()
    for entry in build_corpus():
        for key, expected, provenance in entry.facts:
            ok, got = _check_fact(entry, key, expected)
            line = f"{entry.name}: {key} = {expected} {provenance}"
            if ok:
                report.passed.append(line)
            else:
                report.failed.append(f"{line}  [got {got}]")
    for name, ok, detail in _invariant_suite(random.Random(seed)):
        line = f"invariants: {name} {detail}".rstrip()
        (report.passed if ok else report.failed).append(line)
    return report
