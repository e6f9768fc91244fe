"""Surface embeddings of graphs: rotation systems with signatures, exact
minimum Euler genus, cycle surgery, excluded-minor certification, nested
contractible cycles (the longest well-nested chain and the face-layer
radius), balanced tree-decomposition separators, and the bound-function
tower."""

from .graph import (Graph, GraphError, apply_minor_op, blocks, contract_edge,
                    delete_edge, delete_vertex, dedupe_isomorphic,
                    graph6_decode, graph6_encode, graph_from_json,
                    graph_to_json, group_isomorphic, is_isomorphic,
                    one_step_minors, parse_graph)
from .embedding import (Embedding, EmbeddingError, FaceWalk, default_embedding,
                        random_embedding)
from .topology import (CutResult, CycleAnalysis, CycleClassification,
                       TopologyError, are_homotopic, classify_cycle,
                       cut_along, induced_embedding, total_genus)
from .genus_search import (BudgetError, BudgetExceeded, EmbedDecision,
                           GenusProfile, SearchCheckError, Surface,
                           cached_profile, combined_minima, embeddable_in,
                           genus_via_blocks, min_euler_genus)
from .certify import (CertificationOutcome, ExclusionCertificate, MinorWitness,
                      certificate_from_json, certificate_to_json,
                      certify_excluded_minor, check_genus_range,
                      verify_certificate)
from .structure import (ChainResult, RadiusMap, StructureError, WellNestedKind,
                        enumerate_cycles, longest_well_nested_chain, radius)
from .treedecomp import (SeparationSequence, TreeDecomposition,
                         TreeDecompositionError, balanced_1_separation,
                         balanced_separation_sequence,
                         compute_tree_decomposition, validate)
from .bounds import (BoundTower, BoundValue, BoundsError, Log2Interval,
                     bounds_table, certified_floor_log, check_superadditive,
                     constants, floor_log_43, floor_log_q)
from .corpus import CorpusEntry, build_corpus

__version__ = "0.1.0"
