"""Certification of minimal excluded minors for a surface.

A graph certifies when it does not embed in the surface but every
one-step minor does; minor monotonicity of embeddability then covers
all proper minors.  Certificates store re-checkable witnesses for the
minors and a reproducible search configuration digest for the negative
claim.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .graph import (Graph, GraphError, MinorOp, apply_minor_op, blocks,
                    dedupe_isomorphic, graph_to_json, graph_from_json,
                    one_step_minors, separations_of_order, edge_key)
from .embedding import Embedding
from .genus_search import (EmbedDecision, Surface, cached_profile,
                           combined_minima, default_budget, embeddable_in)
from .topology import classify_cycle
from .structure import enumerate_cycles


PRUNING_VERSION = "girth-face-bound-v2"


class CertificationError(ValueError):
    pass


@dataclass(frozen=True)
class MinorWitness:
    op: MinorOp
    graph: Graph
    # per-component embeddings (a single-component graph has one entry)
    embeddings: tuple[Embedding, ...]

    def verify(self, surface: Surface) -> bool:
        comps = sorted(self.graph.components(), key=min)
        if len(comps) != len(self.embeddings):
            return False
        genera = []
        orientable_flags = []
        for comp, emb in zip(comps, self.embeddings):
            if set(emb.graph.vertices) != set(comp):
                return False
            if not emb.graph.is_subgraph_of(self.graph):
                return False
            if emb.graph.m != sum(1 for e in self.graph.edges
                                  if e[0] in comp and e[1] in comp):
                return False
            genera.append(emb.euler_genus())
            orientable_flags.append(emb.is_orientable())
        total = sum(genera)
        if surface.orientable:
            return all(orientable_flags) and total <= surface.genus
        if all(orientable_flags):
            return total + 1 <= surface.genus
        if sum(1 for f in orientable_flags if not f) != 1:
            return False  # one nonorientable component carries the role
        return total <= surface.genus


@dataclass(frozen=True)
class ExclusionCertificate:
    graph: Graph
    surface: Surface
    minors: tuple[MinorWitness, ...]
    genus_of_g: int
    search: dict

    def digest(self) -> str:
        return hashlib.sha256(certificate_to_json(self).encode()).hexdigest()


@dataclass(frozen=True)
class CertificationOutcome:
    certificate: ExclusionCertificate | None
    counterexample: dict | None

    @property
    def certified(self) -> bool:
        return self.certificate is not None


def _witness_tuple(decision: EmbedDecision) -> tuple[Embedding, ...]:
    w = decision.witness
    if w is None:
        return ()
    if isinstance(w, Embedding):
        return (w,)
    return tuple(w)


def certify_excluded_minor(graph: Graph, surface: Surface,
                           budget: int | None = None) -> CertificationOutcome:
    """Certify the graph as a minimal excluded minor for the surface, or
    produce a counterexample (an embedding of the graph itself, or a
    named one-step minor that fails to embed)."""
    if budget is None:
        budget = default_budget()
    # minors first: a failing minor is cheap to find and kills the claim
    candidates = one_step_minors(graph)
    grouped: list[tuple[MinorOp, Graph]] = []
    reps: list[Graph] = []
    for op, m in candidates:
        match = None
        for i, r in enumerate(reps):
            if r.n == m.n and r.m == m.m and _iso(r, m):
                match = i
                break
        if match is None:
            reps.append(m)
            grouped.append((op, m))
    witnesses = []
    decisions: dict[int, EmbedDecision] = {}
    for i, (op, m) in enumerate(grouped):
        dec = embeddable_in(m, surface, budget)
        if dec.embeddable is None:
            raise CertificationError(
                f"budget exceeded while deciding one-step minor {op}")
        decisions[i] = dec
        if not dec.embeddable:
            return CertificationOutcome(None, {
                "kind": "non-embeddable-minor",
                "op": list(op) if not isinstance(op[1], tuple) else [op[0], list(op[1])],
                "minor": json.loads(graph_to_json(m)),
            })
        witnesses.append(MinorWitness(op, m, _witness_tuple(dec)))
    dec_g = embeddable_in(graph, surface, budget)
    if dec_g.embeddable is None:
        raise CertificationError("budget exceeded while deciding the graph itself")
    if dec_g.embeddable:
        emb = _witness_tuple(dec_g)
        return CertificationOutcome(None, {
            "kind": "graph-embeds",
            "witness": [json.loads(e.to_json()) for e in emb],
        })
    orient, nonor = combined_minima(graph, budget)
    genus_of_g = orient if nonor is None else min(orient, nonor)
    cert = ExclusionCertificate(
        graph=graph, surface=surface, minors=tuple(witnesses),
        genus_of_g=genus_of_g,
        search={"budget": budget, "pruning": PRUNING_VERSION, "seed": 0})
    return CertificationOutcome(cert, None)


def _iso(a: Graph, b: Graph) -> bool:
    from .graph import is_isomorphic
    return is_isomorphic(a, b)


def check_genus_range(cert: ExclusionCertificate) -> bool:
    """The genus of a certified excluded minor exceeds the surface genus
    by one or two."""
    g = cert.surface.genus
    return g + 1 <= cert.genus_of_g <= g + 2


def verify_certificate(cert: ExclusionCertificate,
                       budget: int | None = None) -> tuple[bool, str | None]:
    """Re-check a certificate from its stored data: every minor witness
    re-evaluates, the minors cover every one-step minor class, and the
    nonembeddability claim reproduces under the stored search settings."""
    for w in cert.minors:
        if not w.verify(cert.surface):
            return False, f"witness for {w.op} failed verification"
    have = list(w.graph for w in cert.minors)
    for op, m in one_step_minors(cert.graph):
        if not any(h.n == m.n and h.m == m.m and _iso(h, m) for h in have):
            return False, f"one-step minor {op} not covered by any witness"
    dec = embeddable_in(cert.graph, cert.surface,
                        budget if budget is not None else cert.search.get("budget"))
    if dec.embeddable is not False:
        return False, "nonembeddability claim did not reproduce"
    if not check_genus_range(cert):
        return False, "genus of the graph is outside {g+1, g+2}"
    return True, None


# ---------------------------------------------------------------------------
# Structural consequences on certified instances
# ---------------------------------------------------------------------------


def blocks_are_excluded_minors(cert: ExclusionCertificate,
                               budget: int | None = None,
                               max_genus: int = 4) -> list[tuple[Graph, Surface | None]]:
    """For each block of a certified graph, the smallest surface for
    which the block itself certifies (orientable first at equal genus)."""
    blks, _ = blocks(cert.graph)
    out = []
    for b in blks:
        found = None
        for s in _surfaces_up_to(max_genus):
            try:
                outcome = certify_excluded_minor(b, s, budget)
            except CertificationError:
                continue
            if outcome.certified:
                found = s
                break
        out.append((b, found))
    return out


def _surfaces_up_to(max_genus: int):
    for g in range(max_genus + 1):
        if g % 2 == 0:
            yield Surface(g, True)
        if g >= 1:
            yield Surface(g, False)


def check_two_separation_property(cert: ExclusionCertificate,
                                  emb: Embedding,
                                  cycle_budget: int = 20_000) -> tuple[bool, dict | None]:
    """Every 2-separation (A, B) of a certified graph has B either a
    single edge or not contained in a disk of the minimum embedding
    (no contractible cycle holds all of B inside).

    Vacuous for 3-connected graphs.  Returns (holds, violating
    separation or None)."""
    graph = cert.graph
    if emb.graph != graph:
        raise CertificationError("embedding is for a different graph")
    cycles, _ = enumerate_cycles(graph, cycle_budget)
    analyses = []
    for c in cycles:
        ana = classify_cycle(graph, emb, c)
        if ana.is_contractible:
            analyses.append(ana)
    for sep in separations_of_order(graph, 2):
        for side, other in ((sep.side_a, sep.side_b), (sep.side_b, sep.side_a)):
            if other.m == 0:
                continue  # degenerate padding side
            if _is_single_edge(side, sep.separator):
                continue
            if side.m == 0:
                continue
            if _contained_in_disk(side, analyses):
                return False, {"separator": sorted(sep.separator),
                               "side": sorted(side.vertices)}
    return True, None


def _is_single_edge(side: Graph, separator: frozenset[int]) -> bool:
    return side.m == 1 and set(side.vertices) == set(separator)


def _contained_in_disk(side: Graph, analyses) -> bool:
    sv = set(side.vertices)
    se = set(side.edges)
    for ana in analyses:
        inside_v = ana.side_vertices(ana.int_side())
        inside_e = ana.side_edges(ana.int_side()) | set(
            (min(a, b), max(a, b)) for a, b in zip(ana.cycle, ana.cycle[1:] + ana.cycle[:1]))
        if sv <= inside_v and se <= inside_e:
            return True
    return False


def check_superadditive_bound_transfer(bound_fn, g1: int, g2: int) -> bool:
    """The block-reduction hypotheses for a bound function: increasing on
    [0, g1+g2] and superadditive at (g1, g2)."""
    from .bounds import check_superadditive
    return check_superadditive(bound_fn, g1, g2)


# ---------------------------------------------------------------------------
# Serialization (stable field order)
# ---------------------------------------------------------------------------


def _op_to_json(op: MinorOp):
    if op[0] == "delete-vertex":
        return {"kind": op[0], "vertex": op[1]}
    return {"kind": op[0], "edge": list(op[1])}


def _op_from_json(obj) -> MinorOp:
    if obj["kind"] == "delete-vertex":
        return ("delete-vertex", obj["vertex"])
    return (obj["kind"], tuple(obj["edge"]))


def certificate_to_json(cert: ExclusionCertificate) -> str:
    obj = {
        "graph": json.loads(graph_to_json(cert.graph)),
        "surface": {"genus": cert.surface.genus, "orientable": cert.surface.orientable},
        "minors": [
            {"op": _op_to_json(w.op),
             "minor": json.loads(graph_to_json(w.graph)),
             "witness": [json.loads(e.to_json()) for e in w.embeddings]}
            for w in cert.minors
        ],
        "genus_of_G": cert.genus_of_g,
        "search": {k: cert.search[k] for k in sorted(cert.search)},
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def certificate_from_json(text: str) -> ExclusionCertificate:
    obj = json.loads(text)
    graph = graph_from_json(json.dumps(obj["graph"]))
    surface = Surface(obj["surface"]["genus"], obj["surface"]["orientable"])
    minors = []
    for w in obj["minors"]:
        op = _op_from_json(w["op"])
        m = graph_from_json(json.dumps(w["minor"]))
        embs = tuple(Embedding.from_json(json.dumps(e)) for e in w["witness"])
        minors.append(MinorWitness(op, m, embs))
    return ExclusionCertificate(graph, surface, tuple(minors),
                                obj["genus_of_G"], obj["search"])
