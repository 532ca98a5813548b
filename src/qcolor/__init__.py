"""Chromatic and quantum chromatic numbers, orthogonal representations,
Kochen-Specker decision procedures, and the two-player coloring game."""

__version__ = "0.1.0"

from .graphs import (Graph, cartesian_product, complement, complete_graph,
                     hadamard_graph, make_graph, orthogonality_graph)
from .linalg import DEFAULT_RANK_TOL, DEFAULT_TOL
from .coloring import (ColoringCertificate, ColoringError, chromatic_number,
                       clique_number, greedy_coloring, is_c_colorable,
                       verify_coloring)
from .ks import (KSDecision, KSError, VectorSet, brute_force_ks, canonicalize,
                 enumerate_bases, ks_check, verify_ks_witness)
from .reps import (MatrixRepresentation, OrthogonalRepresentation, PSDWitness,
                   QuantumColoring, RepsError, SearchParams, ThetaCertificate,
                   chi_q1_upper_via_product, hadamard_quantum_coloring,
                   matrixrep_to_orthrep, orthrep_to_matrixrep,
                   psd_witness_check, quantum_coloring_from_classical,
                   search_orthogonal_representation, theta_certificate,
                   verify_matrix_representation,
                   verify_orthogonal_representation, verify_quantum_coloring,
                   verify_theta_certificate, xi_bounds)
from .datasets import BUNDLED, bundled_path, load_vector_set
from .game import (ClassicalStrategy, GameError, NormalFormError,
                   POVMStrategy, best_classical_win_probability,
                   check_consistency, classical_win_probability,
                   normal_form_properties, normalize_strategy,
                   quantum_outcome_distribution, quantum_win_probability,
                   simulate_game, strategy_from_quantum_coloring,
                   validate_strategy)

__all__ = [name for name in dir() if not name.startswith("_")]
