"""omforge: exact computation with oriented matroids.

Chirotopes and their cocircuit sets from rational point configurations,
topes and mutations, mutation flips, oriented-matroid programs and
their Euclideaness, lexicographic extensions, and the classification
chain (Las Vergnas / Mandel / Euclidean / realizable-by-construction).
"""

from .canonical import canonical_form, canonical_key
from .classify import (
    ClassificationReport,
    MandelWitness,
    classify,
    flip_distance_to_euclidean,
    is_las_vergnas,
    mandel_witness_search,
    mutation_graph_bfs,
    summary_table,
)
from .core import (
    Chirotope,
    InvalidChirotope,
    InvalidCocircuits,
    OrientedMatroid,
    ValidationReport,
    chirotope_from_cocircuits,
    cocircuits_from_chirotope,
    cocircuits_from_points,
    om_from_cocircuits,
    om_from_points,
    realizable_extend_through,
    validate_chirotope,
    validate_cocircuit_axioms,
)
from .extensions import (
    LexExtensionSpec,
    corresponding_cocircuit,
    creation_check,
    destruction_check,
    flip_lex_commute_check,
    lex_extend,
    mandel_from_euclidean_mutant,
    perturb_extension,
    swap_isomorphism_check,
)
from .faces import (
    MutationCertificate,
    adjacent_cocircuits,
    flip,
    flip_basis,
    is_simplicial_tope,
    min_adjacent_mutations,
    mutation_adjacency,
    mutation_bases,
    mutation_from_basis,
    mutations,
    topes,
)
from .programs import (
    CocircuitGraph,
    DirectedCycleWitness,
    EuclideanVerdict,
    Program,
    all_programs_euclidean,
    analyze_cycle,
    cocircuit_graph,
    edge_direction,
    eliminate,
    is_euclidean,
    is_totally_non_euclidean,
    program_verdicts,
    reduce_cycle_chordless,
    very_strong_components,
    verify_witness,
)
from .signs import MINUS, PLUS, ZERO, SignVector

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
