"""Surface embeddings of graphs: rotation systems with signatures, exact
minimum Euler genus, cycle surgery, excluded-minor certification,
forbidden-structure detectors, balanced tree-decomposition separators,
and the bound-function tower."""

from .graph import (Bridge, Graph, GraphError, Separation, apply_minor_op,
                    blocks, bridges_on, contract_edge, delete_edge,
                    delete_vertex, dedupe_isomorphic, find_separator,
                    graph6_decode, graph6_encode, graph_from_json,
                    graph_to_json, is_isomorphic, one_step_minors, parse_graph,
                    separations_of_order)
from .embedding import (Embedding, EmbeddingError, FaceWalk, default_embedding,
                        enumerate_embeddings, euler_genus, face_traversal,
                        random_embedding)
from .topology import (CutResult, CycleAnalysis, CycleClassification,
                       TopologyError, are_homotopic, build_Ce, classify_cycle,
                       cut_along, flip, induced_embedding, induced_genus,
                       same_relative_orientation, total_genus)
from .genus_search import (BudgetError, BudgetExceeded, EmbedDecision,
                           GenusProfile, SearchCheckError, Surface,
                           cached_profile, combined_minima, embeddable_in,
                           genus_via_blocks, min_euler_genus)
from .certify import (CertificationOutcome, ExclusionCertificate, MinorWitness,
                      blocks_are_excluded_minors, certificate_from_json,
                      certificate_to_json, certify_excluded_minor,
                      check_genus_range, check_superadditive_bound_transfer,
                      check_two_separation_property, verify_certificate)
from .structure import (ChainResult, ClosestCycle, PathFamily, RadiusMap,
                        SquareContext, StructureError, WellNestedKind,
                        boundary_faces, classify_well_homotopic,
                        classify_well_nested, closest_enclosing_cycle,
                        cycles_in_this_order, enumerate_cycles,
                        is_almost_disjoint, is_cycles_on_spanning_tree,
                        is_contractible_square, longest_well_nested_chain,
                        max_nonhomotopic_internally_disjoint,
                        nonhomotopic_bound, radius, square_verdict,
                        touching_faces, well_homotopic_in_order)
from .treedecomp import (SeparationSequence, TreeDecomposition,
                         TreeDecompositionError, balanced_1_separation,
                         balanced_separation_sequence,
                         compute_tree_decomposition, validate)
from .bounds import (BoundTower, BoundValue, Log2Interval, bounds_table,
                     certified_floor_log, check_superadditive, constants,
                     f_of, asymptotic_report, floor_log_43, floor_log_q)
from .corpus import CorpusEntry, build_corpus

__version__ = "0.1.0"
