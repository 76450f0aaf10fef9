"""Exact restricted cores for cooperative games on set systems.

The package answers, with exact rational arithmetic, the questions: in which
directions is the core of a game with restricted cooperation unbounded, which
minimal collections of coalition payoffs must be frozen to bound it, and how
does the resulting restricted core compare with the restricted Weber set.
"""

from .core_weber import (
    Game,
    InclusionVerdict,
    build_restricted_core,
    is_convex,
    marginal_vector,
    restricted_weber,
    verify_inclusion,
)
from .errors import (
    BoundedCoreError,
    ChainNotRegularSteps,
    CollectionNotNested,
    DimensionMismatch,
    DocumentError,
    DuplicateSet,
    HeightDeficient,
    InternalInconsistency,
    MissingEmptySet,
    MissingGrandCoalition,
    NoFeasibleLift,
    NoRestrictedChain,
    NotAPartialOrder,
    NotClosed,
    NotRegular,
    NotWeaklyUnionClosed,
    PlayerOutOfRange,
    SetNotFeasible,
    UniverseTooLarge,
    ValidationError,
    WorkBudgetExceeded,
)
from .lattice import (
    PlayerPoset,
    downsets,
    extract_poset,
    level_partition,
    load_poset,
)
from .normal import (
    LiftOutcome,
    NormalCollection,
    algo1_irredundant,
    grabisch_xie_collection,
    lift_collection_detailed,
    validate_normal,
    weber_collection,
)
from .polyhedra import (
    HPolyhedron,
    VRepresentation,
    dd_generators,
)
from .rays import (
    RayReport,
    build_recession_cone,
    rays_distributive,
    rays_general,
    rays_regular,
    wuc_ray_equality_condition,
)
from .setsystem import (
    PlayerUniverse,
    SetSystem,
    StructureReport,
    classify,
    closure,
    coalition_text,
    load_set_system,
    maximal_chains,
    members,
)
from .vectors import Vector, format_rational, parse_rational

__version__ = "0.1.0"
