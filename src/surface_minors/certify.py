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

from .graph import (Graph, GraphError, MinorOp, apply_minor_op, graph_to_json,
                    graph_from_json, group_isomorphic, one_step_minors)
from .embedding import Embedding
from .genus_search import Surface, combined_minima, default_budget, embeddable_in


PRUNING_VERSION = "distance-face-bound-floor-parity-warm-signs-v6"


class CertificationError(ValueError):
    pass


@dataclass(frozen=True)
class MinorWitness:
    op: MinorOp
    graph: Graph
    # per-component embeddings (a single-component graph has one entry)
    embeddings: tuple[Embedding, ...]

    def verify(self, surface: Surface) -> bool:
        """The embeddings cover the minor's components, and their union,
        placed on the connected sum of their surfaces, fits the surface."""
        comps = self.graph.components
        if len(comps) != len(self.embeddings):
            return False
        if any(emb.graph != self.graph.subgraph(comp)
               for comp, emb in zip(comps, self.embeddings)):
            return False
        return surface.fits(sum(e.euler_genus() for e in self.embeddings),
                            all(e.is_orientable() for e in self.embeddings))


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


def certify_excluded_minor(graph: Graph, surface: Surface,
                           budget: int | None = None) -> CertificationOutcome:
    """Certify the graph as a minimal excluded minor for the surface, or
    produce a counterexample (an embedding of the graph itself, or a
    named one-step minor that fails to embed)."""
    if budget is None:
        budget = default_budget()
    # minors first: a failing minor is cheap to find and kills the claim
    candidates = one_step_minors(graph)
    grouped = [candidates[cls[0]] for cls in group_isomorphic([m for _, m in candidates])]
    witnesses = []
    for op, m in grouped:
        dec = embeddable_in(m, surface, budget)
        if dec.embeddable is None:
            raise CertificationError(
                f"budget exceeded while deciding one-step minor {op}")
        if not dec.embeddable:
            return CertificationOutcome(None, {
                "kind": "non-embeddable-minor",
                "op": list(op) if not isinstance(op[1], tuple) else [op[0], list(op[1])],
                "minor": json.loads(graph_to_json(m)),
            })
        witnesses.append(MinorWitness(op, m, dec.witness))
    dec_g = embeddable_in(graph, surface, budget)
    if dec_g.embeddable is None:
        raise CertificationError("budget exceeded while deciding the graph itself")
    if dec_g.embeddable:
        return CertificationOutcome(None, {
            "kind": "graph-embeds",
            "witness": [json.loads(e.to_json()) for e in dec_g.witness],
        })
    orient, nonor = combined_minima(graph, budget)
    genus_of_g = orient if nonor is None else min(orient, nonor)
    cert = ExclusionCertificate(
        graph=graph, surface=surface, minors=tuple(witnesses),
        genus_of_g=genus_of_g,
        search={"budget": budget, "pruning": PRUNING_VERSION, "seed": 0})
    return CertificationOutcome(cert, None)


def check_genus_range(cert: ExclusionCertificate) -> bool:
    """The genus of a certified excluded minor exceeds the surface genus
    by one or two."""
    g = cert.surface.genus
    return g + 1 <= cert.genus_of_g <= g + 2


def verify_certificate(cert: ExclusionCertificate,
                       budget: int | None = None) -> tuple[bool, str | None]:
    """Re-check a certificate from its stored data: every minor witness
    is the graph its op makes of the certified graph and re-evaluates,
    the minors cover every one-step minor class, and the
    nonembeddability claim reproduces under the stored search settings."""
    for w in cert.minors:
        try:
            minor = apply_minor_op(cert.graph, w.op)
        except GraphError as exc:
            return False, f"minor op {w.op} does not apply: {exc}"
        if minor != w.graph:
            return False, f"witness graph for {w.op} is not the graph that op makes"
        if not w.verify(cert.surface):
            return False, f"witness for {w.op} failed verification"
    have = [w.graph for w in cert.minors]
    minors = one_step_minors(cert.graph)
    for cls in group_isomorphic(have + [m for _, m in minors]):
        if cls[0] >= len(have):  # a class with no witness graph
            op = minors[cls[0] - len(have)][0]
            return False, f"one-step minor {op} not covered by any witness"
    dec = embeddable_in(cert.graph, cert.surface,
                        budget if budget is not None else cert.search.get("budget"))
    if dec.embeddable is not False:
        return False, "nonembeddability claim did not reproduce"
    if not check_genus_range(cert):
        return False, "genus of the graph is outside {g+1, g+2}"
    return True, None


# ---------------------------------------------------------------------------
# Serialization (stable field order)
# ---------------------------------------------------------------------------


def _op_to_json(op: MinorOp):
    if op[0] == "delete-vertex":
        return {"kind": op[0], "vertex": op[1]}
    return {"kind": op[0], "edge": list(op[1])}


def _field(obj, key: str, kind: type, where: str):
    """``obj[key]`` when obj is a JSON object holding a ``kind`` there."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind):
        raise CertificationError(f"certificate json: {where} needs {kind.__name__} field {key!r}")
    return value


def _op_from_json(obj) -> MinorOp:
    kind = _field(obj, "kind", str, "op")
    if kind == "delete-vertex":
        return (kind, _field(obj, "vertex", int, "op"))
    if kind in ("delete-edge", "contract-edge"):
        edge = _field(obj, "edge", list, "op")
        if len(edge) != 2 or not all(isinstance(v, int) for v in edge):
            raise CertificationError("certificate json: op needs an 'edge' of two vertex ids")
        return (kind, tuple(edge))
    raise CertificationError(f"certificate json: unknown op kind {kind!r}")


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
    """Parse ``certificate_to_json`` output; a malformed certificate
    raises ``CertificationError`` naming the field."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificationError(f"certificate json: {exc.msg} at byte {exc.pos}") from None
    graph = graph_from_json(json.dumps(_field(obj, "graph", dict, "certificate")))
    fields = _field(obj, "surface", dict, "certificate")
    genus = _field(fields, "genus", int, "surface")
    orientable = _field(fields, "orientable", bool, "surface")
    try:
        surface = Surface(genus, orientable)
    except ValueError as exc:
        raise CertificationError(f"certificate json: surface: {exc}") from None
    minors = []
    for w in _field(obj, "minors", list, "certificate"):
        op = _op_from_json(_field(w, "op", dict, "minor"))
        m = graph_from_json(json.dumps(_field(w, "minor", dict, "minor")))
        embs = tuple(Embedding.from_json(json.dumps(e))
                     for e in _field(w, "witness", list, "minor"))
        minors.append(MinorWitness(op, m, embs))
    return ExclusionCertificate(graph, surface, tuple(minors),
                                _field(obj, "genus_of_G", int, "certificate"),
                                _field(obj, "search", dict, "certificate"))
