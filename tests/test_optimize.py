import os
import subprocess
import sys
import textwrap
from pathlib import Path


def test_checks_survive_optimize():
    # one named check per module, run with assertions compiled away
    script = textwrap.dedent("""
        from surface_minors import bounds, embedding, structure, treedecomp
        from surface_minors.graph import Graph

        print("debug", __debug__)
        k3 = Graph.build(range(3), [(0, 1), (1, 2), (0, 2)])
        emb = embedding.Embedding.build(k3)
        embedding.Embedding.face_count = lambda self: 5
        treedecomp.validate = lambda graph, td: (False, "forced")
        checks = ((embedding.EmbeddingError, emb.euler_genus),
                  (structure.StructureError, structure.WellNestedKind.on),
                  (treedecomp.TreeDecompositionError,
                   lambda: treedecomp.compute_tree_decomposition(k3)),
                  (bounds.BoundsError, lambda: bounds.log2_of_int(0)))
        for error, check in checks:
            try:
                check()
                print("passed")
            except error as exc:
                print(error.__name__, exc)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines() == [
        "debug False",
        "EmbeddingError Euler formula produced negative genus",
        "StructureError WellNestedKind.on: 0 pieces; one or two allowed",
        "TreeDecompositionError constructed decomposition failed validation: forced",
        "BoundsError log2_of_int: 0 is not positive"]
