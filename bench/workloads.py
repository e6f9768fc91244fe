"""The three workloads: seeded inputs, the ops that run on them, and the
check of each op's answer against ``reference``.

``generate`` runs in the driving process and needs only ``graphs``.
``build_ops`` runs in the pass process after the package is imported;
decoding the inputs into package objects there is part of set-up.  An
op is ``(name, run, check)``: ``run()`` calls the package and returns a
plain JSON-able answer, and ``check(answer)`` returns ``(reason,
provenance)`` where the reason is ``None`` when the answer agrees with
its reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import graphs as G
import reference as R

WORKLOADS = ("genus-exact", "certify-minors", "embedded-surgery")

# genus-exact: seeded random graphs per cycle rank, as (count, max subdivisions)
RANDOM_PANEL = {4: (6, 2), 5: (10, 0), 6: (4, 0)}
FACE_BATCHES, FACE_BATCH = 10, 400
CLASSIFY_CHUNKS = 28
TORUS = (4, 4)
# Chains stay well under the exact-treewidth op: on the 3x4 torus grid
# (1.9 s) and the 4x4 planar grid (1.2 s) the chain's large working set
# made it the slowest op and the one that host load slows most (+20%
# against +10-12% for the genus search and treewidth ops), so the
# slowest-op reading followed the host rather than the program.
CHAINS = (("torus 3x3", "torus", 3, 3), ("planar 3x5", "plane", 3, 5))
CUT_CYCLES = 40
HOMOTOPY_PAIRS = 40
RADIUS_GRID, RADIUS_RECTANGLES = 7, 20
TREEWIDTH_PANEL = (("grid 4x4", G.grid(4, 4), 4, "grid"),
                   ("grid 3x5", G.grid(3, 5), 3, "grid"),
                   ("grid 2x7", G.grid(2, 7), 2, "grid"),
                   ("grid 3x4", G.grid(3, 4), 3, "grid"),
                   ("Petersen", G.petersen(), 4, "Petersen"),
                   ("K4,4", G.complete_bipartite(4, 4), 4, "K4,4"))
SEPARATION_GRID, SEPARATION_KS = (6, 60), (6, 12)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _graph_input(name, g, **extra) -> dict:
    n, edges = g
    return {"name": name, "n": n, "edges": [list(e) for e in edges],
            "g6": G.graph6(n, edges), **extra}


def _edges(item) -> list[tuple[int, int]]:
    return [tuple(e) for e in item["edges"]]


# ---------------------------------------------------------------------------
# Input generation (driving process)
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int) -> dict:
    rng = rng_for(workload, seed)
    if workload == "genus-exact":
        return _generate_genus(rng)
    if workload == "certify-minors":
        return _generate_certify()
    if workload == "embedded-surgery":
        return _generate_surgery(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _generate_genus(rng: random.Random) -> dict:
    panel = [_graph_input(name, g) for name, g in
             (("K5", G.complete(5)), ("K3,3", G.complete_bipartite(3, 3)),
              ("K3,4", G.complete_bipartite(3, 4)), ("Petersen", G.petersen()),
              ("Q3", G.cube_q3()))]
    for beta, (count, subdivisions) in RANDOM_PANEL.items():
        for k in range(count):
            g = G.random_subcubic(rng, beta, rng.randint(0, subdivisions))
            panel.append(_graph_input(f"random beta={beta} #{k}", g))
    rng.shuffle(panel)
    return {"graphs": panel}


CERTIFY_GRAPHS = {
    "K5@S0": lambda: G.complete(5),
    "K3,3@S0": lambda: G.complete_bipartite(3, 3),
    "2K5@N1": lambda: G.disjoint_union(G.complete(5), G.complete(5)),
    "K5+K3,3@N1": lambda: G.disjoint_union(G.complete(5), G.complete_bipartite(3, 3)),
    "2K3,3@N1": lambda: G.disjoint_union(G.complete_bipartite(3, 3),
                                         G.complete_bipartite(3, 3)),
    "K5.K5@N1": lambda: G.one_sum(G.complete(5), G.complete(5)),
    "K5.K3,3@N1": lambda: G.one_sum(G.complete(5), G.complete_bipartite(3, 3)),
    "K3,3.K3,3@N1": lambda: G.one_sum(G.complete_bipartite(3, 3),
                                      G.complete_bipartite(3, 3)),
    "K6@S0": lambda: G.complete(6),
    "K3,4@S0": lambda: G.complete_bipartite(3, 4),
    "K3,3@N1": lambda: G.complete_bipartite(3, 3),
    "Petersen@N1": G.petersen,
}


def _generate_certify() -> dict:
    """The literature panel, its labels and its order are fixed, so the
    seed does not change this workload.  The package caches genus
    profiles by labeled graph, so labels and order decide which case
    reuses another's work: under seeded labels K6@S0 took 5 ms or 430 ms
    and corpus verify 0.26 s or 0.65 s, and op_p50_ms jumped between
    ops from one seed to the next."""
    return {"cases": [_graph_input(name, CERTIFY_GRAPHS[name](),
                                   surface=R.CERTIFY_CASES[name][0])
                      for name in CERTIFY_GRAPHS]}


def _rectangle(r0, c0, r1, c1, cols) -> list[int]:
    """Boundary cycle of the grid rectangle with corners (r0, c0), (r1, c1)."""
    top = [r0 * cols + c for c in range(c0, c1 + 1)]
    right = [r * cols + c1 for r in range(r0 + 1, r1 + 1)]
    bottom = [r1 * cols + c for c in range(c1 - 1, c0 - 1, -1)]
    left = [r * cols + c0 for r in range(r1 - 1, r0, -1)]
    return top + right + bottom + left


def _path_decomposition(rows: int, cols: int, perm: list[int]) -> dict:
    """Width-``rows`` path decomposition of the grid: windows of rows + 1
    consecutive vertices in column-major order."""
    order = [perm[r * cols + c] for c in range(cols) for r in range(rows)]
    nodes = len(order) - rows
    return {"bags": {str(t): sorted(order[t:t + rows + 1]) for t in range(nodes)},
            "tree_edges": [[t, t + 1] for t in range(nodes - 1)]}


def _generate_surgery(rng: random.Random) -> dict:
    n7, e7 = G.complete(7)
    faces = [G.random_embedding(rng, n7, e7) for _ in range(FACE_BATCHES * FACE_BATCH)]
    rows, cols = TORUS
    tn, tedges, _ = G.torus_grid(rows, cols)
    cycles = G.simple_cycles(tn, tedges)
    rng.shuffle(cycles)
    essential = [c for c in cycles if R.winding(c, rows, cols) != (0, 0)]
    pairs = []
    while len(pairs) < HOMOTOPY_PAIRS:
        a, b = rng.choice(essential), rng.choice(cycles)
        if not set(a) & set(b):
            pairs.append((a, b))
    rects = []
    for _ in range(RADIUS_RECTANGLES):
        r0, r1 = sorted(rng.sample(range(RADIUS_GRID), 2))
        c0, c1 = sorted(rng.sample(range(RADIUS_GRID), 2))
        rects.append({"cycle": _rectangle(r0, c0, r1, c1, RADIUS_GRID),
                      "size": [r1 - r0, c1 - c0]})
    treewidth = []
    for name, (n, edges), width, family in TREEWIDTH_PANEL:
        treewidth.append(_graph_input(name, (n, G.relabel(n, edges, rng)),
                                      width=width, family=family))
    srows, scols = SEPARATION_GRID
    sn, sedges = G.grid(srows, scols)
    perm = list(range(sn))
    rng.shuffle(perm)
    separation = _graph_input(f"grid {srows}x{scols}",
                              (sn, G.norm_edges((perm[u], perm[v]) for u, v in sedges)),
                              td=_path_decomposition(srows, scols, perm))
    return {
        "k7": [[{str(v): r for v, r in rot.items()},
                [[u, v, s] for (u, v), s in sig.items()]] for rot, sig in faces],
        "cycles": cycles,
        "cut": cycles[:CUT_CYCLES],
        "pairs": pairs,
        "radius": rects,
        "treewidth": treewidth,
        "separation": separation,
    }


# ---------------------------------------------------------------------------
# Ops (pass process)
# ---------------------------------------------------------------------------


def run_cli(sm, argv: list[str]) -> dict:
    """One CLI call in this process: exit code plus the parsed JSON it
    printed (or its raw text when that is not JSON)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = sm.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    text = buf.getvalue().strip()
    try:
        out = json.loads(text) if text else None
    except json.JSONDecodeError:
        out = text
    return {"rc": rc, "out": out}


def build_ops(workload: str, inputs: dict, sm) -> list:
    """``sm`` is the imported ``surface_minors`` package."""
    return {"genus-exact": _genus_ops, "certify-minors": _certify_ops,
            "embedded-surgery": _surgery_ops}[workload](inputs, sm)


def _genus_ops(inputs, sm):
    ops = []
    for item in inputs["graphs"]:
        def run(g6=item["g6"]):
            return run_cli(sm, ["genus", "--graph6", g6, "--json", "--witnesses"])

        def check(ans, item=item):
            if ans["rc"] != 0 or not isinstance(ans["out"], dict):
                return f"exit code {ans['rc']}, output {str(ans['out'])[:80]!r}", ""
            return R.check_genus_answer(ans["out"], item["n"], _edges(item),
                                        R.NAMED_GENUS.get(item["name"]))
        ops.append((f"genus {item['name']}", run, check))
    return ops


def _certify_ops(inputs, sm):
    ops = []
    for item in inputs["cases"]:
        def run(item=item):
            ans = run_cli(sm, ["certify", "--graph6", item["g6"], "--surface",
                               item["surface"], "--json"])
            if ans["rc"] == 0 and isinstance(ans["out"], dict):
                cert = sm.certify.certificate_from_json(json.dumps(ans["out"]))
                ans["recheck"] = list(sm.certify.verify_certificate(cert))
            return ans

        def check(ans, item=item):
            source = R.CERTIFY_CASES[item["name"]][3]
            if not isinstance(ans["out"], dict):
                return f"exit code {ans['rc']}, output {str(ans['out'])[:80]!r}", source
            reasons = [R.check_certify_answer(item["name"], ans["rc"], ans["out"], item["n"],
                                              _edges(item))]
            if ans.get("recheck", [True, None]) != [True, None]:
                reasons.append(f"verify_certificate returned {ans['recheck']}")
            return "; ".join(r for r in reasons if r) or None, source
        ops.append((f"certify {item['name']}", run, check))

    def corpus():
        return run_cli(sm, ["corpus", "verify", "--json"])

    def corpus_check(ans):
        out = ans["out"] if isinstance(ans["out"], dict) else {}
        ok = ans["rc"] == 0 and out.get("ok") is True and out.get("failed") == []
        return (None if ok else f"corpus verify exit {ans['rc']}, failed {out.get('failed')}",
                "the bundled corpus must recompute every stored fact")
    ops.append(("corpus verify", corpus, corpus_check))
    return ops


def _surgery_ops(inputs, sm):
    Graph, Embedding = sm.graph.Graph, sm.embedding.Embedding
    ops = []

    # face tracing on seeded random embeddings of K7
    n7, e7 = G.complete(7)
    k7 = Graph.build(range(n7), e7)
    decoded = [(Embedding.build(k7, {int(v): r for v, r in rot.items()},
                                {(u, v): s for u, v, s in sig}), rot, sig)
               for rot, sig in inputs["k7"]]
    for b in range(FACE_BATCHES):
        batch = decoded[b * FACE_BATCH:(b + 1) * FACE_BATCH]

        def run(batch=batch):
            return [len(emb.faces()) for emb, _, _ in batch]

        def check(ans, batch=batch):
            for got, (_, rot, sig) in zip(ans, batch):
                want = R.face_count(e7, {int(v): r for v, r in rot.items()},
                                    {(u, v): s for u, v, s in sig})
                if got != want:
                    return f"{got} faces, reference face counter gives {want}", ""
            return None, "independent face counter"
        ops.append((f"faces K7 batch {b}", run, check))

    # the torus grid: classify, cut, homotopy
    rows, cols = TORUS
    tn, tedges, trot = G.torus_grid(rows, cols)
    torus = Graph.build(range(tn), tedges)
    temb = Embedding.build(torus, trot)
    cycles = [tuple(c) for c in inputs["cycles"]]
    size = -(-len(cycles) // CLASSIFY_CHUNKS)
    for k in range(CLASSIFY_CHUNKS):
        chunk = cycles[k * size:(k + 1) * size]

        def run(chunk=chunk):
            out = []
            for c in chunk:
                cls = sm.topology.classify_cycle(torus, temb, c).classification
                out.append([cls.sidedness, cls.separating, cls.contractible])
            return out

        def check(ans, chunk=chunk):
            for got, c in zip(ans, chunk):
                want = R.torus_classification(c, rows, cols)
                if got != [want["sidedness"], want["separating"], want["contractible"]]:
                    return f"cycle {c}: {got}, winding numbers give {want}", ""
            return None, "winding numbers on the torus"
        ops.append((f"classify torus chunk {k}", run, check))

    cut_cycles = [tuple(c) for c in inputs["cut"]]

    def cut_run():
        out = []
        for c in cut_cycles:
            res = sm.topology.cut_along(torus, temb, c)
            out.append([len(res.copies), sm.topology.total_genus(res)])
        return out

    def cut_check(ans):
        for got, c in zip(ans, cut_cycles):
            want = [2, 2 if R.winding(c, rows, cols) == (0, 0) else 0]
            if got != want:
                return f"cut along {c}: [copies, total genus] = {got}, expected {want}", ""
        return None, ("a separating cut of the torus leaves a disk and a holed torus "
                      "(Euler genus 0 + 2); a nonseparating one leaves an annulus")
    ops.append(("cut torus cycles", cut_run, cut_check))

    pairs = [(tuple(a), tuple(b)) for a, b in inputs["pairs"]]

    def homotopy_run():
        out = []
        for a, b in pairs:
            region = sm.topology.are_homotopic(torus, temb, a, b)
            out.append(None if region is None else list(region.vertices))
        return out

    def homotopy_check(ans):
        for got, (a, b) in zip(ans, pairs):
            want = R.winding(b, rows, cols) != (0, 0)
            if (got is not None) != want:
                return f"cycles {a} and {b}: homotopic={got is not None}, expected {want}", ""
            if got is not None and not set(a) | set(b) <= set(got):
                return f"cycles {a} and {b}: region misses a cycle vertex", ""
        return None, ("disjoint essential curves on the torus bound an annulus; "
                      "an essential and a contractible curve differ in homology")
    ops.append(("homotopy torus pairs", homotopy_run, homotopy_check))

    # longest well-nested chains on a torus grid and a planar grid
    for name, surface, r, c in CHAINS:
        if surface == "torus":
            n, edges, rot = G.torus_grid(r, c)

            def contractible(cyc, r=r, c=c):
                return R.winding(cyc, r, c) == (0, 0)

            def nested(a, b, r=r, c=c):
                return R.nested_on_torus(a, b, r, c)
        else:
            n, edges = G.grid(r, c)
            rot = G.planar_grid_rotation(r, c)

            def contractible(cyc):
                return True

            def nested(a, b, c=c):
                return R.nested_in_plane(a, b, c)
        graph = Graph.build(range(n), edges)
        emb = Embedding.build(graph, rot)

        def run(graph=graph, emb=emb):
            res = sm.structure.longest_well_nested_chain(graph, emb)
            return {"cycles": [list(x) for x in res.cycles], "discipline": res.discipline,
                    "exact": res.exact}

        def check(ans, adj=G.adjacency(n, edges), contractible=contractible, nested=nested):
            if not ans["exact"]:
                return "cycle enumeration hit its budget", ""
            return (R.check_chain([tuple(x) for x in ans["cycles"]], adj, contractible, nested),
                    "structure-checked: cycles, contractibility and nesting")
        ops.append((f"chain {name}", run, check))

    # face-layer radius inside rectangles of a planar grid
    rn, redges = G.grid(RADIUS_GRID, RADIUS_GRID)
    rgraph = Graph.build(range(rn), redges)
    remb = Embedding.build(rgraph, G.planar_grid_rotation(RADIUS_GRID, RADIUS_GRID))
    rects = inputs["radius"]

    def radius_run():
        outer = max(remb.faces(), key=lambda f: f.size)
        return [sm.structure.radius(rgraph, remb, rect["cycle"], outer_face=outer).radius
                for rect in rects]

    def radius_check(ans):
        for got, rect in zip(ans, rects):
            want = R.rectangle_radius(*rect["size"])
            if got != want:
                return f"rectangle {rect['size']}: radius {got}, expected {want}", ""
        return None, "face layers peel one ring of unit squares each"
    ops.append(("radius planar rectangles", radius_run, radius_check))

    # exact treewidth on graphs of known treewidth
    for item in inputs["treewidth"]:
        graph = sm.graph.graph6_decode(item["g6"])

        def run(graph=graph):
            td, exact = sm.treedecomp.compute_tree_decomposition(graph, mode="exact")
            obj = td.to_json_obj()
            return {"width": td.width, "exact": exact, **obj}

        def check(ans, item=item):
            if not ans["exact"] or ans["width"] != item["width"]:
                return f"width {ans['width']} (exact={ans['exact']}), known {item['width']}", ""
            bags = {int(t): b for t, b in ans["bags"].items()}
            return (R.check_tree_decomposition(item["n"], _edges(item), bags, ans["tree_edges"]),
                    R.KNOWN_TREEWIDTH_PROVENANCE[item["family"]])
        ops.append((f"treewidth {item['name']}", run, check))

    # balanced separation sequences on a large grid
    sep = inputs["separation"]
    sgraph = sm.graph.graph6_decode(sep["g6"])
    std = sm.treedecomp.TreeDecomposition.from_json_obj(sep["td"])
    sbags = {int(t): b for t, b in sep["td"]["bags"].items()}
    for k in SEPARATION_KS:
        def run(k=k):
            seq = sm.treedecomp.balanced_separation_sequence(sgraph, std, k)
            return [list(p) for p in seq.parts]

        def check(ans, k=k):
            return (R.check_separation(sbags, sep["td"]["tree_edges"], ans, k),
                    "balanced separation sequence properties")
        ops.append((f"separate {sep['name']} k={k}", run, check))

    return ops
