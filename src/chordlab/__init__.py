"""Desk-scale laboratory for three intertwined combinatorial constructions:

- a staged "dump" construction of traceable graphs with no chordless 4-paths,
  whose coding-vertex embeddings decode which values its driving sequence took;
- the finite dichotomy that large traceable graphs contain a K22 copy or a
  chordless n-path, with its coloring-based proof pipeline;
- fence extraction from finitely generated length-3 lattices.
"""

from .construction import (
    StagedHistory,
    StageState,
    build_decode_context,
    check_history_lemmas,
    coding_change_law,
    decode_range,
    history_has_no_chordless4,
    run,
    seeded_injective,
    stable_coding_prefix,
)
from .errors import (
    CapacityError,
    ChordlabError,
    CoverageError,
    ExtractionError,
    InvalidInputError,
    LatticeAxiomError,
    ResourceLimitError,
    StructuralError,
)
from .graphs import (
    K22,
    Embedding,
    Graph,
    Pattern,
    check_traceable,
    embedding_is_valid,
    find_chordless_path,
    find_k22,
)
from .lattices import (
    BoundedPoset,
    FiniteLattice,
    GenTree,
    RankTable,
    build_tree,
    check_length3,
    check_no_double_cover,
    closure_and_rank,
    comparability_graph,
    fence_lattice,
    find_fences,
    spurred_fence_lattice,
    validate_fence,
)
from .ramsey import (
    DichotomyWitness,
    FourColoring,
    HomogeneousCertificate,
    build_coloring,
    build_increasing_paths,
    dichotomy,
    estimate_min_m,
    extract_chordless,
    extract_k22,
    find_homogeneous,
    proof_pipeline,
    tower,
    tower_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
