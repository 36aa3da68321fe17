"""Linear hypergraph cycle toolkit: data model, reductions, path machinery,
layered tree expansion, cycle-assembly engines, generators, and a brute-force
oracle."""

from .core import (
    ColoredGraph,
    CycleFamily,
    LinearCycle,
    LinearHypergraph,
    LinearPath,
    RPartition,
    build,
    project,
    verify_cycle,
    verify_path,
)
from .engine import (
    Constants,
    EngineReport,
    FailureTrace,
    consecutive_cycles,
    cycles_from_boundary,
    cycles_from_internal,
    even_consecutive_cycles,
    find_c2k,
    transversal_cleanup,
)
from .errors import (
    BudgetExceeded,
    DuplicatePair,
    EmptyCore,
    Infeasible,
    InvalidWitness,
    InvariantViolation,
    LincycError,
    MalformedInput,
    NonUniformEdge,
    NotEnoughDensity,
    NotFound,
    NotPartite,
    PreconditionFailed,
    RetriesExhausted,
    SingletonS,
    TheoremContradictionTrace,
    TooLarge,
    VertexOutOfRange,
)
from .generators import (
    GenSpec,
    generate,
    greedy_partial_steiner,
    high_girth_sparsify,
    plant_cycles,
)
from .mert import Mert, TreePathBundle, anchor_and_label, build_mert, expand_tree_path
from .oracle import Spectrum, enumerate_cycles, girth, rainbow_path_exists
from .pathfinder import (
    AnchoredSubgraph,
    PanConnectedFamily,
    anchored_subgraph,
    dense_layer_subgraph,
    pan_connected,
    path_with_part,
    rainbow_special_path,
)
from .reductions import (
    bfs_layers,
    d_minimal,
    degenerate_ordering,
    min_degree_subgraph,
    r_partite_reduction,
)

__version__ = "0.1.0"
