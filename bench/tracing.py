"""Spans around calls into the package, recorded from outside it.

``install`` replaces each traced public function with a wrapper under
every name the package's modules bind it to, so a caller that imported
the function by name calls the wrapper too.  A span is ``(name, start,
end, parent, op, info)``: ``parent`` is the index of the enclosing
span or -1, ``op`` the index of the benchmark op that was running, and
``info`` a small count taken from the result.  Spans stay in memory
until the pass ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    info: object = None


def _min_genus_info(args, kwargs, result):
    return [result.explored, result.exact]


def _certify_info(args, kwargs, result):
    return len(result.certificate.minors) if result.certified else 0


def _treedecomp_info(args, kwargs, result):
    _, exact = result
    return 2 ** args[0].n if exact else 0


# (span name, module, attribute path, info from (args, kwargs, result))
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("genus_search.min_euler_genus", "genus_search", "min_euler_genus", _min_genus_info),
    ("genus_search.cached_profile", "genus_search", "cached_profile", None),
    ("genus_search.profile_via_blocks", "genus_search", "profile_via_blocks", None),
    ("genus_search.combined_minima", "genus_search", "combined_minima", None),
    ("genus_search.embeddable_in", "genus_search", "embeddable_in", None),
    ("genus_search.genus_via_blocks", "genus_search", "genus_via_blocks", None),
    ("graph.one_step_minors", "graph", "one_step_minors", lambda a, k, r: len(r)),
    ("graph.is_isomorphic", "graph", "is_isomorphic", lambda a, k, r: bool(r)),
    ("graph.dedupe_isomorphic", "graph", "dedupe_isomorphic", None),
    ("graph.blocks", "graph", "blocks", None),
    ("certify.certify_excluded_minor", "certify", "certify_excluded_minor", _certify_info),
    ("certify.verify_certificate", "certify", "verify_certificate", None),
    ("certify.certificate_from_json", "certify", "certificate_from_json", None),
    ("certify.certificate_to_json", "certify", "certificate_to_json", None),
    ("corpus.verify", "corpus", "verify", None),
    ("embedding.faces", "embedding", "Embedding.faces", None),
    ("embedding.face_count", "embedding", "Embedding.face_count", None),
    ("topology.classify_cycle", "topology", "classify_cycle",
     lambda a, k, r: r.classification.contractible),
    ("topology.cut_along", "topology", "cut_along", None),
    ("topology.are_homotopic", "topology", "are_homotopic", None),
    ("structure.enumerate_cycles", "structure", "enumerate_cycles", lambda a, k, r: len(r[0])),
    ("structure.longest_well_nested_chain", "structure", "longest_well_nested_chain", None),
    ("structure.radius", "structure", "radius", None),
    ("treedecomp.compute_tree_decomposition", "treedecomp", "compute_tree_decomposition",
     _treedecomp_info),
    ("treedecomp.balanced_separation_sequence", "treedecomp",
     "balanced_separation_sequence", None),
)


class Tracer:
    """Collects spans for one pass.  Single-threaded: the open spans form
    a stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = self.clock()
            result = detail = None
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    detail = info(args, kwargs, result)
                return result
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.op, detail)
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.info]) + "\n")


def install(tracer: Tracer, package) -> callable:
    """Wrap every target under each module-level name bound to it, and
    class attributes in place.  Returns a function that undoes it."""
    modules = [package] + [getattr(package, m) for m in
                           ("graph", "embedding", "topology", "genus_search", "certify",
                            "structure", "treedecomp", "bounds", "corpus", "cli")]
    undo = []
    for name, module, attr, info in TARGETS:
        owner = getattr(package, module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(name, original, info))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, info)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore():
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)
    return restore


# ---------------------------------------------------------------------------
# Self time and the per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, cursor), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def _ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p >= 0:
        yield p
        p = spans[p].parent


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer figures of one traced pass, in seconds and counts."""
    selfs = self_times(spans)

    def self_of(*names):
        return sum(t for s, t in zip(spans, selfs) if s.name in names)

    def layer_self(layer):
        return sum(t for s, t in zip(spans, selfs) if s.name.split(".")[0] == layer)

    def total_of(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def ratio(num, den):
        return num / den if den else 0.0

    def info_sum(name):
        return sum(spans[i].info or 0 for i in named(name))

    searches = [i for i in named("genus_search.min_euler_genus") if spans[i].info]
    nodes = sum(spans[i].info[0] for i in searches)
    search_self = sum(selfs[i] for i in searches)
    searched = {p for i in searches for p in _ancestors(spans, i)}
    profiles = named("genus_search.cached_profile")
    iso = named("graph.is_isomorphic")
    faces = named("embedding.faces") + named("embedding.face_count")
    faces_self = sum(selfs[i] for i in faces)
    classify = named("topology.classify_cycle")
    in_structure = [i for i in classify if any(spans[p].name.startswith("structure.")
                                               for p in _ancestors(spans, i))]
    exact_td = [i for i in named("treedecomp.compute_tree_decomposition") if spans[i].info]
    return {
        "genus_search.self_s": layer_self("genus_search"),
        "genus_search.nodes": nodes,
        "genus_search.nodes_per_s": ratio(nodes, search_self),
        "genus_search.searches": len(searches),
        "genus_search.cache_hit_ratio": ratio(sum(i not in searched for i in profiles),
                                              len(profiles)),
        "genus_search.inexact": sum(not spans[i].info[1] for i in searches),
        "graph.minors_self_s": self_of("graph.one_step_minors"),
        "graph.minors": info_sum("graph.one_step_minors"),
        "graph.iso_self_s": self_of("graph.is_isomorphic", "graph.dedupe_isomorphic"),
        "graph.iso_calls": len(iso),
        "graph.iso_match_ratio": ratio(sum(bool(spans[i].info) for i in iso), len(iso)),
        "graph.blocks_self_s": self_of("graph.blocks"),
        "certify.self_s": layer_self("certify"),
        "certify.verify_s": total_of("certify.verify_certificate"),
        "certify.minor_classes": info_sum("certify.certify_excluded_minor"),
        "corpus.verify_s": total_of("corpus.verify"),
        "embedding.faces_self_s": faces_self,
        "embedding.faces_calls": len(faces),
        "embedding.embeddings_per_s": ratio(len(faces), faces_self),
        "topology.classify_self_s": self_of("topology.classify_cycle"),
        "topology.classify_calls": len(classify),
        "topology.cut_self_s": self_of("topology.cut_along"),
        "topology.homotopy_self_s": self_of("topology.are_homotopic"),
        "structure.enumerate_self_s": self_of("structure.enumerate_cycles"),
        "structure.cycles_enumerated": info_sum("structure.enumerate_cycles"),
        "structure.chain_self_s": self_of("structure.longest_well_nested_chain"),
        "structure.contractible_ratio": ratio(sum(bool(spans[i].info) for i in in_structure),
                                              len(in_structure)),
        "treedecomp.exact_self_s": sum(selfs[i] for i in exact_td),
        "treedecomp.dp_states": sum(spans[i].info for i in exact_td),
        "treedecomp.separate_s": total_of("treedecomp.balanced_separation_sequence"),
        "cli.self_s": self_of("cli.main"),
    }


LAYER_UNITS = {
    "genus_search.nodes": "count", "genus_search.searches": "count",
    "genus_search.inexact": "count", "genus_search.nodes_per_s": "1/s",
    "genus_search.cache_hit_ratio": "ratio", "graph.minors": "count",
    "graph.iso_calls": "count", "graph.iso_match_ratio": "ratio",
    "certify.minor_classes": "count", "embedding.faces_calls": "count",
    "embedding.embeddings_per_s": "1/s", "topology.classify_calls": "count",
    "structure.cycles_enumerated": "count", "structure.contractible_ratio": "ratio",
    "treedecomp.dp_states": "count", "trace.overhead_s": "s",
}


def unit_of(metric: str) -> str:
    return LAYER_UNITS.get(metric, "s")
