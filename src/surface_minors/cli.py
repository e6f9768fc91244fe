"""Command-line frontend.

Subcommands: faces, genus, embeddable, certify, cut, homotopy, chain,
radius, treedecomp, separate, bounds, corpus.  Machine-readable output
with --json, human tables otherwise; nonzero exit on errors and on
corpus verification failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .graph import Graph, GraphError, blocks, graph6_decode, graph_to_json, parse_graph
from .embedding import Embedding, EmbeddingError, default_embedding
from .genus_search import DEFAULT_BUDGET, Surface, cached_profile, embeddable_in, min_euler_genus
from . import bounds as bounds_mod
from . import corpus as corpus_mod


def _load_graph(args) -> Graph:
    if args.graph6:
        return graph6_decode(args.graph6)
    if args.json_graph:
        with open(args.json_graph) as fh:
            return parse_graph(fh.read())
    raise SystemExit("error: provide --graph6 or --json-graph")


def _load_embedding(args, graph: Graph) -> Embedding:
    if args.embedding:
        with open(args.embedding) as fh:
            emb = Embedding.from_json(fh.read())
        if emb.graph != graph:
            raise SystemExit("error: embedding file is for a different graph")
        return emb
    return default_embedding(graph)


def _emit(args, obj: dict, human: str):
    if args.json:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(human)


def _parse_cycle(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def cmd_faces(args) -> int:
    g = _load_graph(args)
    emb = _load_embedding(args, g)
    faces = emb.faces()
    obj = {"count": len(faces),
           "faces": [[list(d) for d in f.darts] for f in faces],
           "sizes": [f.size for f in faces]}
    human = f"{len(faces)} faces, sizes {sorted(f.size for f in faces)}"
    _emit(args, obj, human)
    return 0


def cmd_genus(args) -> int:
    g = _load_graph(args)
    if not g.is_connected():
        raise SystemExit("error: genus is computed per connected graph; "
                         "use `embeddable` for the combination rule")
    search = cached_profile if blocks(g)[1] else min_euler_genus
    prof = search(g, args.budget)
    obj = {"orientable_min": prof.orientable_min,
           "nonorientable_min": prof.nonorientable_min,
           "exact": prof.exact,
           "explored": prof.explored}
    if args.witnesses:
        obj["orientable_witness"] = json.loads(prof.orientable_witness.to_json())
        if prof.nonorientable_witness is not None:
            obj["nonorientable_witness"] = json.loads(prof.nonorientable_witness.to_json())
    nmin = "infinite" if prof.nonorientable_min is None else prof.nonorientable_min
    human = (f"orientable {prof.orientable_min}, nonorientable {nmin}"
             + ("" if prof.exact else "  [INEXACT: budget exhausted]"))
    _emit(args, obj, human)
    return 0 if prof.exact else 3


def cmd_embeddable(args) -> int:
    g = _load_graph(args)
    surface = Surface.parse(args.surface)
    dec = embeddable_in(g, surface, args.budget)
    obj = {"surface": str(surface), "embeddable": dec.embeddable, "reason": dec.reason}
    if dec.embeddable and args.witnesses:
        obj["witness"] = [json.loads(e.to_json()) for e in dec.witness]
    human = f"embeddable in {surface}: {dec.embeddable}" + \
        (f"  ({dec.reason})" if dec.reason else "")
    _emit(args, obj, human)
    if dec.embeddable is None:
        return 3
    return 0


def cmd_certify(args) -> int:
    from .certify import certify_excluded_minor, certificate_to_json
    g = _load_graph(args)
    surface = Surface.parse(args.surface)
    outcome = certify_excluded_minor(g, surface, args.budget)
    if outcome.certified:
        text = certificate_to_json(outcome.certificate)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        if args.json:
            print(text)
        else:
            print(f"certified: excluded minor for {surface} "
                  f"(genus of G = {outcome.certificate.genus_of_g}, "
                  f"{len(outcome.certificate.minors)} minor classes, "
                  f"digest {outcome.certificate.digest()[:16]})")
        return 0
    _emit(args, {"certified": False, "counterexample": outcome.counterexample},
          f"not an excluded minor: {outcome.counterexample['kind']}")
    return 1


def cmd_cut(args) -> int:
    from .topology import cut_along, total_genus
    g = _load_graph(args)
    emb = _load_embedding(args, g)
    cut = cut_along(g, emb, _parse_cycle(args.cycle))
    genus = total_genus(cut)
    obj = {"graph": json.loads(graph_to_json(cut.graph)),
           "embedding": json.loads(cut.embedding.to_json()),
           "copies": [list(c) for c in cut.copies],
           "total_genus": genus}
    _emit(args, obj, f"cut: {cut.graph.n} vertices, {len(cut.copies)} cycle copies, "
          f"total genus {genus}")
    return 0


def cmd_homotopy(args) -> int:
    from .topology import are_homotopic
    g = _load_graph(args)
    emb = _load_embedding(args, g)
    region = are_homotopic(g, emb, _parse_cycle(args.cycle), _parse_cycle(args.cycle2))
    if region is None:
        _emit(args, {"homotopic": False}, "not homotopic")
        return 0
    obj = {"homotopic": True, "interior": json.loads(graph_to_json(region))}
    _emit(args, obj, f"homotopic; common cylinder has {region.n} vertices")
    return 0


def cmd_chain(args) -> int:
    from .structure import longest_well_nested_chain
    g = _load_graph(args)
    emb = _load_embedding(args, g)
    res = longest_well_nested_chain(g, emb, budget=args.budget)
    obj = {"length": len(res.cycles),
           "cycles": [list(c) for c in res.cycles],
           "discipline": res.discipline,
           "exact": res.exact}
    _emit(args, obj, f"chain of {len(res.cycles)} well-nested cycles "
          f"({res.discipline}){'' if res.exact else '  [lower bound: budget hit]'}")
    return 0


def cmd_radius(args) -> int:
    from .structure import radius
    g = _load_graph(args)
    emb = _load_embedding(args, g)
    rm = radius(g, emb, _parse_cycle(args.cycle))
    obj = {"radius": rm.radius,
           "layers": [[[list(d) for d in f.darts] for f in layer]
                      for layer in rm.layers]}
    _emit(args, obj, f"radius {rm.radius}, layer sizes "
          f"{[len(l) for l in rm.layers]}")
    return 0


def cmd_treedecomp(args) -> int:
    from .treedecomp import compute_tree_decomposition
    g = _load_graph(args)
    td, exact = compute_tree_decomposition(g, mode=args.mode)
    obj = td.to_json_obj()
    obj["width"] = td.width
    obj["exact"] = exact
    _emit(args, obj, f"width {td.width} ({'exact' if exact else 'heuristic'}), "
          f"{td.tree.n} bags")
    return 0


def cmd_separate(args) -> int:
    from .treedecomp import (TreeDecomposition, TreeDecompositionError,
                             balanced_separation_sequence, compute_tree_decomposition, validate)
    g = _load_graph(args)
    if args.td:
        with open(args.td) as fh:
            td = TreeDecomposition.from_json_obj(json.load(fh))
        ok, reason = validate(g, td)
        if not ok:
            raise TreeDecompositionError(f"--td is not a tree decomposition of the graph: {reason}")
    else:
        td, _ = compute_tree_decomposition(g, mode="heuristic")
    seq = balanced_separation_sequence(g, td, args.k)
    obj = {"parts": [list(p) for p in seq.parts],
           "weights": list(seq.weights),
           "boundaries": list(seq.boundary_sizes())}
    _emit(args, obj, f"{len(seq.parts)} parts, weights {list(seq.weights)}, "
          f"boundaries {list(seq.boundary_sizes())}")
    return 0


def cmd_bounds(args) -> int:
    table = bounds_mod.bounds_table(args.g)
    if args.json:
        print(json.dumps({"g": args.g, "constants": table},
                         sort_keys=True, separators=(",", ":")))
    else:
        for row in table:
            val = row.get("exact", "")
            log2 = row.get("log2")
            extra = f"  log2 ~ {log2:.6g}" if log2 is not None and "exact" not in row else ""
            print(f"{row['name']:>8} = {val}{extra}   [{row['provenance']}]")
    return 0


def cmd_corpus(args) -> int:
    if args.action == "list":
        entries = corpus_mod.build_corpus()
        obj = {"entries": [{"name": e.name, "n": e.graph.n, "m": e.graph.m,
                            "facts": [f"{k} = {v} {p}" for k, v, p in e.facts]}
                           for e in entries]}
        _emit(args, obj, "\n".join(f"{e.graph.n:>3}v {e.graph.m:>3}e  {e.name}"
                                   for e in entries))
        return 0
    report = corpus_mod.verify(seed=args.seed)
    if args.json:
        print(json.dumps({"ok": report.ok, "passed": report.passed,
                          "failed": report.failed},
                         sort_keys=True, separators=(",", ":")))
    else:
        for line in report.passed:
            print(f"PASS {line}")
        for line in report.failed:
            print(f"FAIL {line}")
        print(f"{'OK' if report.ok else 'FAILED'}: {len(report.passed)} passed, "
              f"{len(report.failed)} failed")
    return 0 if report.ok else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call in the process: building it costs far more than a parse."""
    ap = argparse.ArgumentParser(
        prog="surface-minors",
        description="Surface embeddings, exact Euler genus, excluded-minor "
                    "certification, and balanced tree-decomposition separators.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, embedding=False, search=False):
        p.add_argument("--graph6", help="graph as a graph6 string")
        p.add_argument("--json-graph", help="file with JSON {n, edges} or graph6")
        if search:
            p.add_argument("--budget", type=int, default=None,
                           help="search budget (default: SURFACE_MINORS_BUDGET or "
                                f"{DEFAULT_BUDGET})")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if embedding:
            p.add_argument("--embedding", help="embedding JSON file "
                           "(default: sorted rotations, positive signatures)")

    p = sub.add_parser("faces", help="facial walks of an embedding")
    common(p, embedding=True)
    p.set_defaults(fn=cmd_faces)

    p = sub.add_parser("genus", help="exact minimum Euler genus")
    common(p, search=True)
    p.add_argument("--witnesses", action="store_true")
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("embeddable", help="embeddability in a surface")
    common(p, search=True)
    p.add_argument("--surface", required=True, help="<genus>:orientable|nonorientable")
    p.add_argument("--witnesses", action="store_true")
    p.set_defaults(fn=cmd_embeddable)

    p = sub.add_parser("certify", help="certify a minimal excluded minor")
    common(p, search=True)
    p.add_argument("--surface", required=True)
    p.add_argument("--out", help="write the certificate JSON to a file")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("cut", help="cut an embedded graph along a cycle")
    common(p, embedding=True)
    p.add_argument("--cycle", required=True, help="comma-separated vertex ids")
    p.set_defaults(fn=cmd_cut)

    p = sub.add_parser("homotopy", help="test two cycles for homotopy")
    common(p, embedding=True)
    p.add_argument("--cycle", required=True)
    p.add_argument("--cycle2", required=True)
    p.set_defaults(fn=cmd_homotopy)

    p = sub.add_parser("chain", help="longest well-nested chain")
    common(p, embedding=True)
    p.add_argument("--budget", type=int, default=100_000,
                   help="most cycles enumerated (default: %(default)s)")
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("radius", help="face-layer radius inside a cycle")
    common(p, embedding=True)
    p.add_argument("--cycle", required=True)
    p.set_defaults(fn=cmd_radius)

    p = sub.add_parser("treedecomp", help="tree decomposition and width")
    common(p)
    p.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    p.set_defaults(fn=cmd_treedecomp)

    p = sub.add_parser("separate", help="balanced 1-separation sequence")
    common(p)
    p.add_argument("--td", help="tree decomposition JSON file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_separate)

    p = sub.add_parser("bounds", help="the bound-function tower at genus g")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("corpus", help="bundled corpus: list or verify")
    p.add_argument("action", choices=["list", "verify"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0, help="seed of the invariant suite")
    p.set_defaults(fn=cmd_corpus)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        # a search reading a malformed SURFACE_MINORS_BUDGET raises a
        # BudgetError, which is a ValueError
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (GraphError, EmbeddingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
