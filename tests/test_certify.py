import json
from dataclasses import replace

import pytest

from surface_minors.graph import Graph
from surface_minors.embedding import Embedding
from surface_minors.genus_search import Surface, embeddable_in
from surface_minors.certify import (CertificationError, MinorWitness, certificate_from_json,
                                    certificate_to_json, certify_excluded_minor,
                                    check_genus_range, verify_certificate)
from surface_minors.bounds import check_superadditive, constants
from conftest import complete, complete_bipartite

SPHERE = Surface(0, True)
N1 = Surface(1, False)


def two_k33() -> Graph:
    k33 = complete_bipartite(3, 3)
    return Graph.build(range(12),
                       list(k33.edges) + [(u + 6, v + 6) for u, v in k33.edges])


def test_k5_certifies_for_sphere():
    out = certify_excluded_minor(complete(5), SPHERE)
    assert out.certified
    cert = out.certificate
    assert cert.genus_of_g == 1 and check_genus_range(cert)
    # K4 arises from both vertex deletion and contraction; grouping by
    # isomorphism class leaves {K4, K5 - e}
    assert len(cert.minors) == 2
    ok, why = verify_certificate(cert)
    assert ok, why


def test_k33_certifies_for_sphere():
    out = certify_excluded_minor(complete_bipartite(3, 3), SPHERE)
    assert out.certified
    assert check_genus_range(out.certificate)


def test_k6_rejected_with_named_minor():
    out = certify_excluded_minor(complete(6), SPHERE)
    assert not out.certified
    ce = out.counterexample
    assert ce["kind"] == "non-embeddable-minor"
    assert ce["op"][0] in ("delete-vertex", "contract-edge", "delete-edge")


def test_planar_graph_rejected_with_embedding():
    out = certify_excluded_minor(complete(4), SPHERE)
    assert not out.certified
    assert out.counterexample["kind"] == "graph-embeds"


def test_two_k33_certify_projective():
    out = certify_excluded_minor(two_k33(), N1)
    assert out.certified
    cert = out.certificate
    # each component takes its own crosscap: 2K3,3 embeds in N2 = N1 # N1
    assert cert.genus_of_g == 2 and check_genus_range(cert)
    ok, why = verify_certificate(cert)
    assert ok, why


def test_minor_witness_with_two_nonorientable_components():
    two = two_k33()
    dec = embeddable_in(two, Surface(2, False))
    assert [e.is_orientable() for e in dec.witness] == [False, False]
    w = MinorWitness(("delete-vertex", 12), two, dec.witness)
    # N1 # N1 = N2: the union fits the Klein bottle, not N1 or any orientable surface
    assert w.verify(Surface(2, False)) and w.verify(Surface(3, False))
    assert not w.verify(N1) and not w.verify(Surface(4, True))


def test_certificate_roundtrip_bit_exact():
    cert = certify_excluded_minor(complete(5), SPHERE).certificate
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert certificate_to_json(back) == text
    assert back.digest() == cert.digest()
    ok, why = verify_certificate(back)
    assert ok, why


def test_tampered_certificate_rejected():
    cert = certify_excluded_minor(complete(5), SPHERE).certificate
    obj = json.loads(certificate_to_json(cert))
    obj["genus_of_G"] = 5
    bad = certificate_from_json(json.dumps(obj))
    ok, why = verify_certificate(bad)
    assert not ok and "genus" in why


def _k5_certificate_json(edit) -> str:
    obj = json.loads(certificate_to_json(certify_excluded_minor(complete(5), SPHERE).certificate))
    edit(obj)
    return json.dumps(obj)


@pytest.mark.parametrize("make, field", [
    (lambda: "{}", "'graph'"),
    (lambda: "[]", "'graph'"),
    (lambda: "nope", "byte 0"),
    (lambda: '"nope"', "'graph'"),
    (lambda: _k5_certificate_json(lambda obj: obj.pop("surface")), "'surface'"),
    (lambda: _k5_certificate_json(lambda obj: obj["minors"][0].pop("op")),
     "minor needs dict field 'op'"),
    (lambda: _k5_certificate_json(lambda obj: obj["minors"][0]["op"].update(kind="subdivide")),
     "unknown op kind 'subdivide'"),
    (lambda: _k5_certificate_json(lambda obj: obj["minors"][1]["op"].update(edge=[0, 1, 2])),
     "'edge' of two vertex ids"),
], ids=["empty-object", "list", "not-json", "json-string", "no-surface", "minor-without-op",
        "unknown-op", "edge-of-three"])
def test_malformed_certificate_names_the_field(make, field):
    with pytest.raises(CertificationError, match=field):
        certificate_from_json(make())


def test_certificate_with_missing_minor_rejected():
    cert = certify_excluded_minor(complete(5), SPHERE).certificate
    obj = json.loads(certificate_to_json(cert))
    obj["minors"] = obj["minors"][:1]
    bad = certificate_from_json(json.dumps(obj))
    ok, why = verify_certificate(bad)
    assert not ok and "not covered" in why


def test_certificate_with_a_wrong_witness_graph_rejected():
    # a witness must embed exactly its minor: one edge fewer or one
    # vertex more fails, though K4 - e still embeds in the sphere
    cert = certify_excluded_minor(complete(5), SPHERE).certificate
    w = cert.minors[0]
    emb = w.embeddings[0]
    g = emb.graph
    u, v = g.edges[0]
    fewer = Embedding.build(Graph.build(g.vertices, g.edges[1:]),
                            {x: [y for y in r if {x, y} != {u, v}] for x, r in emb.rot.items()},
                            {e: s for e, s in emb.sig.items() if e != (u, v)})
    more = Embedding.build(Graph.build(g.vertices + (max(g.vertices) + 1,), g.edges),
                           emb.rot, emb.sig)
    for wrong in (fewer, more):
        bad = replace(cert, minors=(replace(w, embeddings=(wrong,)),) + cert.minors[1:])
        ok, why = verify_certificate(bad)
        assert not ok and why == f"witness for {w.op} failed verification"


def test_certificate_with_a_wrong_minor_op_rejected():
    # each witness graph must be the graph its op makes of the certified
    # graph: swapped ops and an op that does not apply are rejected
    cert = certify_excluded_minor(complete(5), SPHERE).certificate
    a, b = cert.minors
    swapped = replace(cert, minors=(replace(a, op=b.op), replace(b, op=a.op)))
    missing = replace(cert, minors=(replace(a, op=("delete-vertex", 9)), b))
    for bad, why in ((swapped, f"witness graph for {b.op} is not the graph that op makes"),
                     (missing, "minor op ('delete-vertex', 9) does not apply")):
        ok, got = verify_certificate(certificate_from_json(certificate_to_json(bad)))
        assert not ok and got.startswith(why)


def test_blocks_of_wedge_certify_per_block():
    k33 = complete_bipartite(3, 3)
    wedge = Graph.build(range(11), list(k33.edges)
                        + [(0 if u == 0 else u + 5, 0 if v == 0 else v + 5)
                           for u, v in k33.edges])
    # the wedge itself is an excluded minor for the Klein bottle (genus sums)
    from surface_minors.genus_search import genus_via_blocks
    assert genus_via_blocks(wedge) == 2
    out = certify_excluded_minor(wedge, N1)
    assert out.certified


def test_superadditive_bound_transfer():
    u_fn = lambda g: constants(g).u_log2
    assert check_superadditive(u_fn, 1, 1)
    assert check_superadditive(u_fn, 1, 2)
    # a constant function fails superadditivity
    const = lambda g: 7
    assert not check_superadditive(const, 1, 1)
    # g + 1 is increasing but not superadditive: N(2) = 3 < N(1) + N(1) = 4
    ident = lambda g: g + 1
    assert check_superadditive(ident, 1, 1) is False
    # 2^g is: N(3) = 8 >= N(1) + N(2) = 6
    assert check_superadditive(lambda g: 2 ** g, 1, 2) is True
